//! `lane_sweep` — the adaptive processors alone, on long streams. 1 024
//! two-by-two APs fill a 64×64 die; each is configured once, in set-up,
//! with an eight-node kernel (stream-load → ×a → +7 → not → ×5 → +b → not
//! → stream-store) over a 256-word stream. A round is one
//! `execute_batch` region sweep over every lane, then a read-back of
//! every stored word, checked against the closed-form wrapping-`u64`
//! reference. No compiler, no serving stack, no wavefront supervisor.
//!
//! The stored words are read from the block the Store object owns:
//! memory objects bind to blocks in install order, so the Load object
//! reads block 0 and the Store object writes **block 1** (at offset 256,
//! its initial stream pointer).
//!
//! One operation = one streamed word.

use vlsi_core::{ProcessorId, VlsiChip};
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};

use super::{die, fold_snapshot, Round, Workload};
use crate::loadgen::{fnv1a, lane_imms, lane_input, lane_reference, LANE_WORDS};
use crate::trace::{Laps, Tracer, NONE};

/// Block and initial offset the Store object writes to.
const STORE_BLOCK: usize = 1;
const STORE_OFFSET: u64 = LANE_WORDS;
/// Sweeps between two re-arms. Stream pointers only advance — nothing
/// public rewinds them — so sweep `w` after arming loads window `w` of
/// block 0 and stores window `w + 1` of block 1, and a 2×2 AP's
/// 8192-word blocks hold 31 such windows. Every window holds the same
/// input words, so every round computes the same outputs.
const WINDOWS: u64 = 30;
/// Lanes read back per span and per segment.
const READBACK_GROUP: usize = 128;

pub struct LaneSweep {
    seed: u64,
    chip: VlsiChip,
    ids: Vec<ProcessorId>,
    /// Sweeps since the lanes were last armed.
    window: u64,
    /// Gather/worm-programming counts, made once in set-up.
    configured: Round,
}

fn lane_objects(k: u64) -> Vec<LogicalObject> {
    let (a, b) = lane_imms(k);
    let imm = |id, op, v| LogicalObject::compute(ObjectId(id), LocalConfig::with_imm(op, Word(v)));
    let not = |id| LogicalObject::compute(ObjectId(id), LocalConfig::op(Operation::INot));
    vec![
        LogicalObject::memory(ObjectId(0), LocalConfig::op(Operation::Load)).with_init(vec![
            Word(0),
            Word(0),
            Word(LANE_WORDS),
        ]),
        imm(1, Operation::MulImm, a),
        imm(2, Operation::AddImm, 7),
        not(3),
        imm(4, Operation::MulImm, 5),
        imm(5, Operation::AddImm, b),
        not(6),
        LogicalObject::memory(ObjectId(7), LocalConfig::op(Operation::Store)).with_init(vec![
            Word(STORE_OFFSET),
            Word(0),
            Word(0),
        ]),
    ]
}

fn lane_stream() -> GlobalConfigStream {
    (1..=6)
        .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
        .chain([GlobalConfigElement {
            sink: ObjectId(7),
            src_lhs: None,
            src_rhs: Some(ObjectId(6)),
            src_pred: None,
        }])
        .collect()
}

/// Builds a `dim`×`dim` die and gathers it full of 2×2 lanes.
fn gather_lanes(dim: u16, tracer: &Tracer) -> (VlsiChip, Vec<ProcessorId>) {
    let mut chip = tracer.span("loadgen.build", NONE, || die(dim, dim, tracer));
    let lanes = u64::from(dim / 2) * u64::from(dim / 2);
    let ids = (0..lanes)
        .map(|k| {
            tracer
                .span("core.gather", k, || chip.gather_any(4))
                .expect("the die fits every lane")
                .id
        })
        .collect();
    (chip, ids)
}

/// Installs, loads, activates and configures every (inactive) lane —
/// each public chip call under its own span.
fn arm(seed: u64, chip: &mut VlsiChip, ids: &[ProcessorId], tracer: &Tracer) {
    for (k, &id) in ids.iter().enumerate() {
        let k = k as u64;
        tracer
            .span("core.install", k, || chip.install(id, lane_objects(k)))
            .expect("install lane kernel");
        let words: Vec<Word> = tracer.span("loadgen.datasets", k, || {
            let window = (0..LANE_WORDS).map(|i| Word(lane_input(seed, k, i)));
            window
                .cycle()
                .take((LANE_WORDS * WINDOWS) as usize)
                .collect()
        });
        tracer
            .span("core.write_mailbox", k, || {
                chip.write_mailbox(id, 0, 0, &words)
            })
            .expect("fill block 0");
        // Size the store block up front too: blocks grow on first touch,
        // and a sweep that grows 1 024 vectors measures the allocator.
        tracer
            .span("core.write_mailbox", k, || {
                chip.write_mailbox(
                    id,
                    STORE_BLOCK,
                    0,
                    &vec![Word(0); words.len() + STORE_OFFSET as usize],
                )
            })
            .expect("size block 1");
        tracer
            .span("core.activate", k, || chip.activate(id))
            .expect("activate");
        tracer
            .span("core.configure", k, || chip.configure(id, lane_stream()))
            .expect("configure");
    }
}

/// Sweep number `window` since arming: one region sweep over every lane,
/// then the read-back check of the window it stored.
fn sweep(
    seed: u64,
    chip: &mut VlsiChip,
    ids: &[ProcessorId],
    window: u64,
    tracer: &Tracer,
    laps: &mut Laps,
) -> Round {
    let mut round = Round::default();
    let reports = tracer
        .span("ap.execute_batch", NONE, || {
            chip.execute_batch(ids, 1, 1_000_000)
        })
        .expect("region sweep");
    laps.mark();
    let mut digest = Vec::with_capacity(ids.len() * LANE_WORDS as usize * 8);
    let mut verified = 0u64;
    let mut max_cycles = 0;
    tracer.span("loadgen.verify", NONE, || {
        for r in &reports {
            round.add("ap.firings", r.firings);
            round.add("ap.cycles", r.cycles);
            round.add("ap.loads", r.loads);
            round.add("ap.stores", r.stores);
            round.sim_cycles += r.cycles;
            max_cycles = max_cycles.max(r.cycles);
            assert!(r.drained, "a lane hit the cycle budget");
        }
    });
    // Read-back, a group of lanes at a time (one span per chip call and
    // group rather than per lane: at four spans a lane the gaps between
    // spans would be a twentieth of the round). Memory is readable by
    // others only while a lane is inactive; its datapath stays configured
    // across the state change.
    let stored_at = STORE_OFFSET + window * LANE_WORDS;
    for (g, group) in ids.chunks(READBACK_GROUP).enumerate() {
        let first = (g * READBACK_GROUP) as u64;
        tracer.span("core.deactivate", first, || {
            for &id in group {
                chip.deactivate(id).expect("deactivate");
            }
        });
        let outs: Vec<Vec<Word>> = tracer
            .span("core.read_mailbox", first, || {
                let read = |&id| chip.read_mailbox(id, STORE_BLOCK, stored_at, LANE_WORDS as usize);
                group.iter().map(read).collect::<Result<_, _>>()
            })
            .expect("read stored words");
        tracer.span("loadgen.verify", first, || {
            for (k, out) in (first..).zip(&outs) {
                let matches = |(i, w): &(u64, &Word)| w.0 == lane_reference(seed, k, *i);
                verified += (0..LANE_WORDS).zip(out).filter(matches).count() as u64;
                digest.extend(out.iter().flat_map(|w| w.0.to_le_bytes()));
            }
        });
        tracer.span("core.activate", first, || {
            for &id in group {
                chip.activate(id).expect("reactivate");
            }
        });
        laps.mark();
    }
    round.attempted = ids.len() as u64 * LANE_WORDS;
    round.failed = round.attempted - verified;
    round.goodput_milli = verified * 1000 / round.attempted;
    round.datasets = ids.len() as u64; // one lane's stream is one dataset
    round.digest = tracer.span("loadgen.verify", NONE, || fnv1a(&digest));
    round.set("sim.lane_cycles_per_word", max_cycles / LANE_WORDS);
    round
}

impl Workload for LaneSweep {
    fn setup(seed: u64, smoke: bool, tracer: &Tracer) -> LaneSweep {
        let (mut chip, ids) = gather_lanes(if smoke { 8 } else { 64 }, tracer);
        arm(seed, &mut chip, &ids, tracer);
        let warm = sweep(
            seed,
            &mut chip,
            &ids,
            0,
            &Tracer::disabled(),
            &mut Laps::start(),
        );
        assert_eq!(warm.failed, 0, "warm-up words must match the closed form");
        let mut configured = Round::default();
        if tracer.is_enabled() {
            let snap = tracer.span("telemetry.snapshot", NONE, || chip.telemetry().snapshot());
            fold_snapshot(&mut configured, &snap);
        }
        LaneSweep {
            seed,
            chip,
            ids,
            window: 1,
            configured,
        }
    }

    fn round(&mut self, _index: u64, tracer: &Tracer, laps: &mut Laps) -> Round {
        if self.window == WINDOWS {
            // Out of windows: wipe every lane back to just-gathered (the
            // programmed switches stay) and arm it again. One round in
            // thirty pays this; the median round does not.
            for (k, &id) in self.ids.iter().enumerate() {
                let k = k as u64;
                tracer
                    .span("core.deactivate", k, || self.chip.deactivate(id))
                    .expect("deactivate");
                tracer
                    .span("core.recycle", k, || self.chip.recycle_processor(id))
                    .expect("recycle");
            }
            arm(self.seed, &mut self.chip, &self.ids, tracer);
            self.window = 0;
        }
        // Segment 0 is the re-arm: next to nothing in twenty-nine rounds
        // of thirty.
        laps.mark();
        let (seed, window) = (self.seed, self.window);
        let mut round = sweep(seed, &mut self.chip, &self.ids, window, tracer, laps);
        self.window += 1;
        round.sim.extend(self.configured.sim.clone());
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form against the simulator, on a 16-lane die: every
    /// stored word of every lane, and across a re-arm.
    #[test]
    fn closed_form_reference_matches_a_sixteen_lane_run() {
        let off = Tracer::disabled();
        let mut w = LaneSweep::setup(2012, true, &off);
        assert_eq!(w.ids.len(), 16);
        for round in 0..WINDOWS + 2 {
            let r = w.round(round, &off, &mut Laps::start());
            assert_eq!(
                (r.attempted, r.failed),
                (16 * LANE_WORDS, 0),
                "round {round}"
            );
        }
        // The check has teeth: against another seed's inputs nothing matches.
        let wrong = sweep(
            2013,
            &mut w.chip,
            &w.ids,
            w.window,
            &off,
            &mut Laps::start(),
        );
        assert_eq!(wrong.failed, wrong.attempted);
    }
}
