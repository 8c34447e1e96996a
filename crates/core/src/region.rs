//! The region executor: many APs advanced in one sweep per tick.
//!
//! [`VlsiChip::execute_batch`](crate::chip::VlsiChip::execute_batch)
//! moves each named processor's resident datapath (already flat
//! struct-of-arrays slabs) and its memory blocks out into a [`SoaLane`]
//! and hands the whole set here. [`sweep_lanes`] advances them
//! *lane-major*: each lane's dense arrays are driven front-to-back to
//! completion while they are hot in cache. The cycle each lane steps is
//! the one engine a lone `execute` runs too — a batch of one.
//!
//! ## Sharding and determinism
//!
//! Lanes are fully independent (each owns its own memory blocks and
//! datapath state), so the sweep shards them into contiguous row
//! stripes — one per pool executor — and runs each stripe's sweep on
//! its own thread via [`Pool::run`]. Because no lane reads another
//! lane's state, the result of every lane is a pure function of that
//! lane alone: any stripe partition, any thread count, and the serial
//! path all produce byte-identical lanes. The ci.sh thread-matrix gate
//! (`soa_sweep` digest at 1/2/8 threads) holds this to one byte pattern.

use std::sync::{Mutex, PoisonError};
use vlsi_ap::SoaLane;
use vlsi_par::Pool;

/// Arms every lane with `tap_limit` / `max_cycles` and sweeps them all
/// to completion (drain, typed failure, or cycle-budget timeout —
/// recorded per lane, surfaced when the lane is dissolved).
///
/// With a serial pool, one stripe sweeps inline; with a threaded pool,
/// contiguous stripes of lanes sweep concurrently, bit-identical to the
/// serial schedule.
pub fn sweep_lanes(pool: &Pool, lanes: &mut [SoaLane], tap_limit: u64, max_cycles: u64) {
    for lane in lanes.iter_mut() {
        lane.start(tap_limit, max_cycles);
    }
    if lanes.is_empty() {
        return;
    }
    let stripes = pool.threads().clamp(1, lanes.len());
    if stripes <= 1 {
        sweep_stripe(lanes);
        return;
    }
    let per = lanes.len().div_ceil(stripes);
    let chunks: Vec<Mutex<&mut [SoaLane]>> = lanes.chunks_mut(per).map(Mutex::new).collect();
    pool.run(chunks.len(), &|i| {
        // Each stripe is locked once, by its own task, so the lock is
        // never found poisoned.
        let mut stripe = chunks[i].lock().unwrap_or_else(PoisonError::into_inner);
        sweep_stripe(&mut stripe);
    });
}

/// Sweeps one stripe lane-major: each lane's flat slabs are driven to
/// completion while they are hot in cache, then the sweep moves to the
/// next lane. Lanes are independent, so this is bit-identical to any
/// other schedule (including cycle-major) — the order only decides
/// cache behaviour, and keeping one lane's dense arrays resident beats
/// touching every lane once per cycle.
fn sweep_stripe(lanes: &mut [SoaLane]) {
    for lane in lanes.iter_mut() {
        while lane.step() {}
    }
}
