//! # vlsi-faults — deterministic cross-layer fault injection
//!
//! The paper's scaling operations (§3.3–3.4) assume configuration worms
//! program switches flawlessly, but a production-scale mesh treats link
//! and switch failure as routine (Epiphany-V-class arrays; the DNP's
//! explicit error-notification and retransmission path). This crate is
//! the single source of truth for *what breaks, where, and when* across
//! every transport layer of the reproduction:
//!
//! * **NoC** — link failures ([`FaultKind::LinkDown`]), flit
//!   bit-corruption ([`FaultKind::LinkCorrupt`]), and router input-queue
//!   stalls ([`FaultKind::RouterStall`]);
//! * **CSD** — channel-segment failures ([`FaultKind::CsdSegment`]);
//! * **S-topology** — programmable-switch stuck-at faults
//!   ([`FaultKind::SwitchStuck`]).
//!
//! A [`FaultPlan`] is built from a seed and per-layer rates by
//! [`FaultPlanBuilder`]; every draw comes from the workspace's SplitMix64
//! generator, so identical seeds yield bit-identical plans on every
//! machine. Each fault carries an activation time and a duration —
//! [`Fault::transient`] faults heal, [`Fault::permanent`] ones do not —
//! and the plan answers point queries (`link_blocked`, `corruption`,
//! `router_stalled`, …) that the transport simulators call from their
//! cycle loops. Time units are the *consumer's*: the NoC interprets them
//! as router cycles, the runtime as scheduler ticks.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use vlsi_prng::Prng;
use vlsi_topology::{Coord, Dir};

/// What breaks. Locations use each layer's native addressing: NoC faults
/// sit on a router coordinate (and, for links, the outgoing direction),
/// CSD faults on a `(channel, segment)` pair, switch faults on a cluster
/// coordinate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The link leaving the router at `at` toward `dir` drops every flit
    /// offered while the fault is active (flits wait; nothing crosses).
    LinkDown {
        /// Router the link leaves from.
        at: Coord,
        /// Outgoing direction of the failed link.
        dir: Dir,
    },
    /// The link leaving `at` toward `dir` XORs `mask` into the data word
    /// of every payload flit that crosses while the fault is active.
    LinkCorrupt {
        /// Router the link leaves from.
        at: Coord,
        /// Outgoing direction of the corrupting link.
        dir: Dir,
        /// Bit pattern XORed into crossing payload words (nonzero).
        mask: u64,
    },
    /// The router at `at` cannot run its allocation stage: input queues
    /// stop draining while the fault is active.
    RouterStall {
        /// The stalled router.
        at: Coord,
    },
    /// Segment `segment` of CSD channel `channel` fails: it can carry no
    /// communication until repaired.
    CsdSegment {
        /// The channel index.
        channel: usize,
        /// The segment index within the channel.
        segment: usize,
    },
    /// The programmable switch at `at` is stuck: it rejects all further
    /// programming, so the cluster cannot join (or stay in) a region.
    SwitchStuck {
        /// The stuck cluster.
        at: Coord,
    },
    /// Cluster-level: the whole chip at fleet index `chip` dies — clock
    /// gone, NoC gone, off-chip links severed. Always treated as
    /// permanent by consumers (a die does not heal); the fabric layer
    /// reacts by rerouting around it and evacuating its jobs.
    ChipDown {
        /// Fleet index of the failed chip.
        chip: u16,
    },
}

/// One scheduled fault: a kind, an activation time, and a duration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// What breaks and where.
    pub kind: FaultKind,
    /// The time unit (cycle or tick) the fault activates at.
    pub start: u64,
    /// How long it stays active; `None` means permanent.
    pub duration: Option<u64>,
}

impl Fault {
    /// A fault active on `[start, start + duration)`.
    pub fn transient(kind: FaultKind, start: u64, duration: u64) -> Fault {
        Fault {
            kind,
            start,
            duration: Some(duration),
        }
    }

    /// A fault active on `[start, ∞)`.
    pub fn permanent(kind: FaultKind, start: u64) -> Fault {
        Fault {
            kind,
            start,
            duration: None,
        }
    }

    /// Whether the fault never heals.
    pub fn is_permanent(&self) -> bool {
        self.duration.is_none()
    }

    /// Whether the fault is active at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start
            && match self.duration {
                None => true,
                Some(d) => t < self.start.saturating_add(d),
            }
    }
}

/// A deterministic schedule of faults across all transport layers.
///
/// ```
/// use vlsi_faults::{FaultPlan, FaultPlanBuilder};
/// use vlsi_topology::Coord;
///
/// let plan = FaultPlanBuilder::new(42)
///     .grid(4, 4)
///     .horizon(1_000)
///     .link_down_rate(0.05)
///     .switch_stuck_rate(0.02)
///     .build();
/// let replay = FaultPlanBuilder::new(42)
///     .grid(4, 4)
///     .horizon(1_000)
///     .link_down_rate(0.05)
///     .switch_stuck_rate(0.02)
///     .build();
/// assert_eq!(plan.faults(), replay.faults()); // same seed, same plan
/// assert!(FaultPlan::none().is_empty());
/// let _ = plan.link_blocked(500, Coord::new(1, 1), vlsi_topology::Dir::East);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (perfect hardware).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit fault list (tests and targeted injection).
    pub fn from_faults(faults: impl IntoIterator<Item = Fault>) -> FaultPlan {
        FaultPlan {
            faults: faults.into_iter().collect(),
        }
    }

    /// Appends one fault to the schedule.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Whether the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Every scheduled fault, in schedule order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the link leaving `at` toward `dir` is down at `t`.
    pub fn link_blocked(&self, t: u64, at: Coord, dir: Dir) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::LinkDown { at: a, dir: d } if a == at && d == dir)
                && f.active_at(t)
        })
    }

    /// Whether the link leaving `at` toward `dir` is *permanently* dead
    /// as of `t` — the only faults adaptive routing detours around
    /// (transient outages are cheaper to wait out in place).
    pub fn link_dead(&self, t: u64, at: Coord, dir: Dir) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::LinkDown { at: a, dir: d } if a == at && d == dir)
                && f.is_permanent()
                && f.active_at(t)
        })
    }

    /// The XOR mask corrupting payload flits crossing `at → dir` at `t`,
    /// if any (multiple active corruptions compose by XOR).
    pub fn corruption(&self, t: u64, at: Coord, dir: Dir) -> Option<u64> {
        let mut mask = 0u64;
        for f in &self.faults {
            if let FaultKind::LinkCorrupt {
                at: a,
                dir: d,
                mask: m,
            } = f.kind
            {
                if a == at && d == dir && f.active_at(t) {
                    mask ^= m;
                }
            }
        }
        (mask != 0).then_some(mask)
    }

    /// Whether the router at `at` is stalled (cannot allocate) at `t`.
    pub fn router_stalled(&self, t: u64, at: Coord) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RouterStall { at: a } if a == at) && f.active_at(t)
        })
    }

    /// Whether the router at `at` is *permanently* stalled as of `t` —
    /// adaptive routing detours around such routers just like dead links.
    pub fn router_dead(&self, t: u64, at: Coord) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RouterStall { at: a } if a == at)
                && f.is_permanent()
                && f.active_at(t)
        })
    }

    /// Whether segment `segment` of CSD channel `channel` is failed at
    /// `t`.
    pub fn csd_segment_down(&self, t: u64, channel: usize, segment: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::CsdSegment { channel: c, segment: s }
                if c == channel && s == segment)
                && f.active_at(t)
        })
    }

    /// CSD segment faults that *activate* exactly at `t` (for clockless
    /// consumers that apply faults edge-triggered).
    pub fn csd_segments_activating_at(&self, t: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.faults.iter().filter_map(move |f| match f.kind {
            FaultKind::CsdSegment { channel, segment } if f.start == t => Some((channel, segment)),
            _ => None,
        })
    }

    /// Chip-death faults that activate exactly at `t`, by fleet index
    /// (edge-triggered, like [`switches_sticking_at`]; chip deaths are
    /// permanent regardless of the fault's recorded duration).
    ///
    /// [`switches_sticking_at`]: FaultPlan::switches_sticking_at
    pub fn chips_failing_at(&self, t: u64) -> impl Iterator<Item = u16> + '_ {
        self.faults.iter().filter_map(move |f| match f.kind {
            FaultKind::ChipDown { chip } if f.start == t => Some(chip),
            _ => None,
        })
    }

    /// Switch stuck-at faults that activate exactly at `t`.
    pub fn switches_sticking_at(&self, t: u64) -> impl Iterator<Item = Coord> + '_ {
        self.faults.iter().filter_map(move |f| match f.kind {
            FaultKind::SwitchStuck { at } if f.start == t => Some(at),
            _ => None,
        })
    }

    /// Permanent NoC faults (dead link or stalled-forever router) that
    /// activate exactly at `t`, by the router coordinate they disable —
    /// what a runtime maps to "this cluster can no longer be reached".
    pub fn noc_failures_at(&self, t: u64) -> impl Iterator<Item = Coord> + '_ {
        self.faults
            .iter()
            .filter(move |f| f.is_permanent() && f.start == t)
            .filter_map(|f| match f.kind {
                FaultKind::LinkDown { at, .. } | FaultKind::RouterStall { at } => Some(at),
                _ => None,
            })
    }

    /// The latest activation time in the plan (0 for an empty plan) —
    /// useful for sizing simulation horizons.
    pub fn last_activation(&self) -> u64 {
        self.faults.iter().map(|f| f.start).max().unwrap_or(0)
    }
}

/// Builds a [`FaultPlan`] from a seed and per-layer rates.
///
/// Rates are *per site over the horizon*: a `link_down_rate` of 0.05
/// means each directed mesh link independently has a 5% chance of one
/// outage somewhere in `[0, horizon)`. Sites are enumerated in a fixed
/// order, so the plan is a pure function of the builder's parameters.
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    width: u16,
    height: u16,
    horizon: u64,
    link_down_rate: f64,
    link_corrupt_rate: f64,
    router_stall_rate: f64,
    csd_channels: usize,
    csd_segments: usize,
    csd_segment_rate: f64,
    switch_stuck_rate: f64,
    cluster_chips: usize,
    chip_down_rate: f64,
    permanent_fraction: f64,
    transient_range: (u64, u64),
}

impl FaultPlanBuilder {
    /// A builder with everything at rate zero on a 1×1 grid.
    pub fn new(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            width: 1,
            height: 1,
            horizon: 1,
            link_down_rate: 0.0,
            link_corrupt_rate: 0.0,
            router_stall_rate: 0.0,
            csd_channels: 0,
            csd_segments: 0,
            csd_segment_rate: 0.0,
            switch_stuck_rate: 0.0,
            cluster_chips: 0,
            chip_down_rate: 0.0,
            permanent_fraction: 0.25,
            transient_range: (16, 128),
        }
    }

    /// The mesh the NoC/switch sites live on.
    pub fn grid(mut self, width: u16, height: u16) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// Activation times are drawn uniformly from `[0, horizon)`.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon.max(1);
        self
    }

    /// Per-directed-link probability of one outage over the horizon.
    pub fn link_down_rate(mut self, rate: f64) -> Self {
        self.link_down_rate = rate;
        self
    }

    /// Per-directed-link probability of one corruption window.
    pub fn link_corrupt_rate(mut self, rate: f64) -> Self {
        self.link_corrupt_rate = rate;
        self
    }

    /// Per-router probability of one allocation stall window.
    pub fn router_stall_rate(mut self, rate: f64) -> Self {
        self.router_stall_rate = rate;
        self
    }

    /// The CSD geometry faults are drawn over (`channels × segments`).
    pub fn csd(mut self, channels: usize, segments: usize) -> Self {
        self.csd_channels = channels;
        self.csd_segments = segments;
        self
    }

    /// Per-segment probability of one failure over the horizon.
    pub fn csd_segment_rate(mut self, rate: f64) -> Self {
        self.csd_segment_rate = rate;
        self
    }

    /// Per-cluster probability of a stuck-at switch fault. Switch faults
    /// are always permanent (stuck-at means stuck).
    pub fn switch_stuck_rate(mut self, rate: f64) -> Self {
        self.switch_stuck_rate = rate;
        self
    }

    /// The number of chips in the cluster chip-death faults are drawn
    /// over (0 — the default — disables the chip layer entirely).
    pub fn cluster(mut self, chips: usize) -> Self {
        self.cluster_chips = chips;
        self
    }

    /// Per-chip probability of the whole die failing somewhere in the
    /// horizon. Chip deaths are always permanent.
    pub fn chip_down_rate(mut self, rate: f64) -> Self {
        self.chip_down_rate = rate;
        self
    }

    /// Fraction of NoC/CSD faults that are permanent rather than
    /// transient (clamped to `[0, 1]`; switch faults are always
    /// permanent).
    pub fn permanent_fraction(mut self, fraction: f64) -> Self {
        self.permanent_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    fn draw_window(&self, rng: &mut Prng) -> (u64, Option<u64>) {
        let start = rng.gen_range(0..self.horizon);
        let permanent = rng.gen_bool(self.permanent_fraction);
        let duration = if permanent {
            None
        } else {
            let (lo, hi) = self.transient_range;
            Some(rng.gen_range(lo..=hi))
        };
        (start, duration)
    }

    /// Materialises the plan. Deterministic: same parameters, same plan.
    pub fn build(&self) -> FaultPlan {
        let mut faults = Vec::new();
        // Independent streams per layer so adding one rate never shifts
        // another layer's draws.
        let mut link_rng = Prng::seed_from_u64(self.seed ^ 0x4C49_4E4B);
        let mut corrupt_rng = Prng::seed_from_u64(self.seed ^ 0x434F_5252);
        let mut stall_rng = Prng::seed_from_u64(self.seed ^ 0x5354_414C);
        let mut csd_rng = Prng::seed_from_u64(self.seed ^ 0x4353_4447);
        let mut switch_rng = Prng::seed_from_u64(self.seed ^ 0x5357_4348);
        let mut chip_rng = Prng::seed_from_u64(self.seed ^ 0x4348_4950);

        for y in 0..self.height {
            for x in 0..self.width {
                let at = Coord::new(x, y);
                for dir in [Dir::North, Dir::South, Dir::East, Dir::West] {
                    // Only links that stay on the mesh are fault sites.
                    let Some(n) = at.step(dir) else { continue };
                    if n.x >= self.width || n.y >= self.height {
                        continue;
                    }
                    if link_rng.gen_bool(self.link_down_rate) {
                        let (start, duration) = self.draw_window(&mut link_rng);
                        faults.push(Fault {
                            kind: FaultKind::LinkDown { at, dir },
                            start,
                            duration,
                        });
                    }
                    if corrupt_rng.gen_bool(self.link_corrupt_rate) {
                        let (start, duration) = self.draw_window(&mut corrupt_rng);
                        let mask = loop {
                            let m = corrupt_rng.next_u64();
                            if m != 0 {
                                break m;
                            }
                        };
                        faults.push(Fault {
                            kind: FaultKind::LinkCorrupt { at, dir, mask },
                            start,
                            duration,
                        });
                    }
                }
                if stall_rng.gen_bool(self.router_stall_rate) {
                    let (start, duration) = self.draw_window(&mut stall_rng);
                    faults.push(Fault {
                        kind: FaultKind::RouterStall { at },
                        start,
                        duration,
                    });
                }
                if switch_rng.gen_bool(self.switch_stuck_rate) {
                    let start = switch_rng.gen_range(0..self.horizon);
                    faults.push(Fault::permanent(FaultKind::SwitchStuck { at }, start));
                }
            }
        }
        for channel in 0..self.csd_channels {
            for segment in 0..self.csd_segments {
                if csd_rng.gen_bool(self.csd_segment_rate) {
                    let (start, duration) = self.draw_window(&mut csd_rng);
                    faults.push(Fault {
                        kind: FaultKind::CsdSegment { channel, segment },
                        start,
                        duration,
                    });
                }
            }
        }
        for chip in 0..self.cluster_chips {
            if chip_rng.gen_bool(self.chip_down_rate) {
                let start = chip_rng.gen_range(0..self.horizon);
                faults.push(Fault::permanent(
                    FaultKind::ChipDown { chip: chip as u16 },
                    start,
                ));
            }
        }
        FaultPlan { faults }
    }
}

/// End-to-end checksum over a packet payload (FNV-1a 64). The NoC
/// computes it at injection and re-checks it at reassembly; any
/// [`FaultKind::LinkCorrupt`] flip changes the digest.
pub fn payload_checksum(words: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlanBuilder::new(seed)
            .grid(8, 8)
            .horizon(10_000)
            .link_down_rate(0.2)
            .link_corrupt_rate(0.2)
            .router_stall_rate(0.2)
            .csd(4, 31)
            .csd_segment_rate(0.2)
            .switch_stuck_rate(0.2)
            .build()
    }

    #[test]
    fn plans_replay_bit_identically() {
        assert_eq!(busy_plan(7), busy_plan(7));
        assert_ne!(busy_plan(7), busy_plan(8), "different seeds diverge");
    }

    #[test]
    fn zero_rates_yield_an_empty_plan() {
        let plan = FaultPlanBuilder::new(3).grid(8, 8).horizon(1_000).build();
        assert!(plan.is_empty());
        assert!(!plan.link_blocked(0, Coord::new(0, 0), Dir::East));
        assert_eq!(plan.corruption(0, Coord::new(0, 0), Dir::East), None);
    }

    #[test]
    fn windows_respect_start_and_duration() {
        let f = Fault::transient(
            FaultKind::RouterStall {
                at: Coord::new(1, 1),
            },
            10,
            5,
        );
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(14));
        assert!(!f.active_at(15));
        let p = Fault::permanent(
            FaultKind::SwitchStuck {
                at: Coord::new(0, 0),
            },
            3,
        );
        assert!(!p.active_at(2));
        assert!(p.active_at(u64::MAX));
    }

    #[test]
    fn queries_see_only_their_layer() {
        let at = Coord::new(2, 2);
        let plan = FaultPlan::from_faults([
            Fault::permanent(FaultKind::LinkDown { at, dir: Dir::East }, 0),
            Fault::transient(
                FaultKind::LinkCorrupt {
                    at,
                    dir: Dir::West,
                    mask: 0xFF,
                },
                5,
                10,
            ),
            Fault::transient(FaultKind::RouterStall { at }, 2, 3),
            Fault::permanent(
                FaultKind::CsdSegment {
                    channel: 1,
                    segment: 4,
                },
                7,
            ),
            Fault::permanent(FaultKind::SwitchStuck { at }, 9),
        ]);
        assert!(plan.link_blocked(0, at, Dir::East));
        assert!(plan.link_dead(0, at, Dir::East));
        assert!(!plan.link_blocked(0, at, Dir::West));
        assert_eq!(plan.corruption(6, at, Dir::West), Some(0xFF));
        assert_eq!(plan.corruption(20, at, Dir::West), None);
        assert!(plan.router_stalled(3, at));
        assert!(!plan.router_stalled(5, at));
        assert!(plan.csd_segment_down(7, 1, 4));
        assert!(!plan.csd_segment_down(6, 1, 4));
        assert_eq!(plan.switches_sticking_at(9).collect::<Vec<_>>(), vec![at]);
        assert_eq!(plan.switches_sticking_at(8).count(), 0);
        assert_eq!(plan.last_activation(), 9);
    }

    #[test]
    fn transient_links_block_but_are_not_dead() {
        let at = Coord::new(0, 0);
        let plan = FaultPlan::from_faults([Fault::transient(
            FaultKind::LinkDown { at, dir: Dir::East },
            0,
            100,
        )]);
        assert!(plan.link_blocked(50, at, Dir::East));
        assert!(!plan.link_dead(50, at, Dir::East));
    }

    #[test]
    fn noc_failures_map_to_router_coords() {
        let a = Coord::new(1, 0);
        let b = Coord::new(2, 3);
        let plan = FaultPlan::from_faults([
            Fault::permanent(
                FaultKind::LinkDown {
                    at: a,
                    dir: Dir::East,
                },
                4,
            ),
            Fault::permanent(FaultKind::RouterStall { at: b }, 4),
            Fault::transient(
                FaultKind::LinkDown {
                    at: b,
                    dir: Dir::West,
                },
                4,
                2,
            ),
        ]);
        let got: Vec<Coord> = plan.noc_failures_at(4).collect();
        assert_eq!(got, vec![a, b], "transient faults are not cluster deaths");
    }

    #[test]
    fn chip_deaths_are_permanent_and_edge_triggered() {
        let build = || {
            FaultPlanBuilder::new(5)
                .horizon(100)
                .cluster(8)
                .chip_down_rate(0.5)
                .build()
        };
        let plan = build();
        assert!(!plan.is_empty(), "0.5 over 8 chips should fire");
        assert_eq!(plan, build(), "chip layer replays bit-identically");
        assert!(plan.faults().iter().all(Fault::is_permanent));
        let fired: Vec<u16> = (0..100).flat_map(|t| plan.chips_failing_at(t)).collect();
        assert_eq!(fired.len(), plan.faults().len());
        assert!(fired.iter().all(|&c| c < 8));
        // The chip stream is independent: enabling it must not disturb
        // the other layers' draws.
        let base = FaultPlanBuilder::new(5)
            .grid(4, 4)
            .horizon(100)
            .link_down_rate(0.3)
            .build();
        let with_chips = FaultPlanBuilder::new(5)
            .grid(4, 4)
            .horizon(100)
            .link_down_rate(0.3)
            .cluster(8)
            .chip_down_rate(0.5)
            .build();
        assert_eq!(
            base.faults(),
            &with_chips.faults()[..base.faults().len()],
            "link draws unchanged by the chip layer"
        );
    }

    #[test]
    fn rates_scale_fault_counts() {
        let low = FaultPlanBuilder::new(11)
            .grid(8, 8)
            .horizon(1_000)
            .link_down_rate(0.01)
            .build();
        let high = FaultPlanBuilder::new(11)
            .grid(8, 8)
            .horizon(1_000)
            .link_down_rate(0.5)
            .build();
        assert!(low.faults().len() < high.faults().len());
    }

    #[test]
    fn checksum_detects_any_single_mask() {
        let payload = [1u64, 2, 3, 4];
        let base = payload_checksum(&payload);
        let mut r = Prng::seed_from_u64(99);
        for _ in 0..1_000 {
            let i = r.gen_range(0..payload.len());
            let mask = loop {
                let m = r.next_u64();
                if m != 0 {
                    break m;
                }
            };
            let mut corrupted = payload;
            corrupted[i] ^= mask;
            assert_ne!(payload_checksum(&corrupted), base);
        }
        assert_eq!(payload_checksum(&[]), payload_checksum(&[]));
    }
}
