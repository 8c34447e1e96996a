//! The lane: one AP's share of a struct-of-arrays region sweep.
//!
//! A region executor advances many APs in one sweep, possibly on several
//! threads, so each AP's executable state has to leave the chip's
//! processor table for the duration. A [`SoaLane`] is that state and
//! nothing more: the resident [`Datapath`] (already flat slabs — see
//! [`datapath`](crate::datapath)) and the AP's memory blocks, both
//! *moved* out by [`AdaptiveProcessor::begin_batch_at`] and moved back by
//! [`AdaptiveProcessor::finish_batch`]. The move copies and allocates
//! nothing (the run's report is built when the lane comes back), and the
//! sweep drives the same [`Datapath::step`] a single `execute` does.
//!
//! [`AdaptiveProcessor::begin_batch_at`]: crate::processor::AdaptiveProcessor::begin_batch_at
//! [`AdaptiveProcessor::finish_batch`]: crate::processor::AdaptiveProcessor::finish_batch

use crate::datapath::Datapath;
use vlsi_object::MemoryBlock;

/// One AP's resident datapath and memory blocks, detached for a batch.
#[derive(Clone, Debug)]
pub struct SoaLane {
    /// Which resident datapath this lane was detached from.
    pub(crate) datapath_index: usize,
    pub(crate) dp: Datapath,
    pub(crate) memory: Vec<MemoryBlock>,
}

impl SoaLane {
    /// Arms the run — see [`Datapath::start`].
    pub fn start(&mut self, tap_limit: u64, max_cycles: u64) {
        self.dp.start(tap_limit, max_cycles);
    }

    /// Simulates one cycle — see [`Datapath::step`]. Returns whether the
    /// lane still has cycles to simulate.
    pub fn step(&mut self) -> bool {
        self.dp.step(&mut self.memory)
    }
}
