//! The replacement scheduling table (§2.5).
//!
//! "When it is an object cache-miss, cache missed object(s) is loaded,
//! and replaceable object(s) is stored if necessary. The replacement is
//! scheduled using a special interconnection network composing a
//! scheduling table."
//!
//! The table's effect on timing: it lets the *store* of an evicted
//! logical object (the write-back) proceed concurrently with the *load*
//! of the missing one, instead of serialising the two memory-block
//! transfers. [`ReplacementScheduler::miss_penalty`] models both regimes
//! so the benefit is measurable (`the_table_always_helps_or_ties` below
//! checks it),
//! and the table itself records every scheduled transfer for inspection.

use vlsi_object::ObjectId;

/// Direction of a scheduled transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transfer {
    /// Library → configuration buffer (miss service).
    SwapIn(ObjectId),
    /// Object space → library (write-back of an LRU victim).
    SwapOut(ObjectId),
}

/// The replacement scheduler of one adaptive processor.
#[derive(Clone, Debug)]
pub struct ReplacementScheduler {
    /// Configuration buffers usable in parallel for swap-ins.
    pub cfb_count: usize,
    /// Cycles per swap-in (library load).
    pub load_latency: u32,
    /// Cycles per swap-out (library write-back).
    pub writeback_latency: u32,
    /// Whether the scheduling table overlaps swap-outs with swap-ins
    /// (`false` models the paper's architecture *without* the table:
    /// transfers serialise).
    pub overlapped: bool,
    table: Vec<Transfer>,
}

impl Default for ReplacementScheduler {
    fn default() -> Self {
        ReplacementScheduler {
            cfb_count: crate::pipeline::CFB_COUNT,
            load_latency: vlsi_object::ObjectLibrary::LOAD_LATENCY,
            writeback_latency: vlsi_object::ObjectLibrary::LOAD_LATENCY,
            overlapped: true,
            table: Vec::new(),
        }
    }
}

impl ReplacementScheduler {
    /// A scheduler with the paper's constants and the table enabled.
    pub fn new() -> ReplacementScheduler {
        ReplacementScheduler::default()
    }

    /// A scheduler without the table (serial transfers) — the baseline
    /// the §2.5 mechanism improves on.
    pub fn serial() -> ReplacementScheduler {
        ReplacementScheduler {
            overlapped: false,
            ..ReplacementScheduler::default()
        }
    }

    /// A scheduler with explicit parameters.
    pub fn configured(
        cfb_count: usize,
        load_latency: u32,
        writeback_latency: u32,
        overlapped: bool,
    ) -> ReplacementScheduler {
        ReplacementScheduler {
            cfb_count,
            load_latency,
            writeback_latency,
            overlapped,
            table: Vec::new(),
        }
    }

    /// Records the transfers of one miss event and returns its stall
    /// cycles. `loads` objects must be fetched; `writebacks` victims must
    /// be stored.
    pub fn schedule(&mut self, loads: &[ObjectId], writebacks: &[ObjectId]) -> u64 {
        for &o in loads {
            self.table.push(Transfer::SwapIn(o));
        }
        for &o in writebacks {
            self.table.push(Transfer::SwapOut(o));
        }
        self.miss_penalty(loads.len(), writebacks.len())
    }

    /// Stall cycles for `loads` swap-ins and `writebacks` swap-outs.
    ///
    /// Swap-ins move through the configuration buffers `cfb_count` at a
    /// time. With the scheduling table, swap-outs overlap them (the two
    /// use the special interconnection network concurrently); without it
    /// they serialise.
    pub fn miss_penalty(&self, loads: usize, writebacks: usize) -> u64 {
        let in_time = loads.div_ceil(self.cfb_count) as u64 * u64::from(self.load_latency);
        let out_time =
            writebacks.div_ceil(self.cfb_count) as u64 * u64::from(self.writeback_latency);
        if self.overlapped {
            in_time.max(out_time)
        } else {
            in_time + out_time
        }
    }

    /// Every transfer scheduled so far, in order.
    pub fn table(&self) -> &[Transfer] {
        &self.table
    }

    /// `(swap_ins, swap_outs)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let ins = self
            .table
            .iter()
            .filter(|t| matches!(t, Transfer::SwapIn(_)))
            .count();
        (ins, self.table.len() - ins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_takes_the_max() {
        let s = ReplacementScheduler::new();
        // 3 loads (one CFB batch) + 3 write-backs: overlapped = 8 cycles.
        assert_eq!(s.miss_penalty(3, 3), 8);
        // Serial baseline pays both.
        assert_eq!(ReplacementScheduler::serial().miss_penalty(3, 3), 16);
    }

    #[test]
    fn loads_batch_through_cfbs() {
        let s = ReplacementScheduler::new();
        assert_eq!(s.miss_penalty(1, 0), 8);
        assert_eq!(s.miss_penalty(3, 0), 8);
        assert_eq!(s.miss_penalty(4, 0), 16);
        assert_eq!(s.miss_penalty(0, 0), 0);
    }

    #[test]
    fn table_records_transfers() {
        let mut s = ReplacementScheduler::new();
        let stall = s.schedule(&[ObjectId(1), ObjectId(2)], &[ObjectId(9)]);
        assert_eq!(stall, 8);
        assert_eq!(s.table().len(), 3);
        assert_eq!(s.counts(), (2, 1));
        assert_eq!(s.table()[2], Transfer::SwapOut(ObjectId(9)));
    }

    #[test]
    fn the_table_always_helps_or_ties() {
        let with = ReplacementScheduler::new();
        let without = ReplacementScheduler::serial();
        for loads in 0..6 {
            for wbs in 0..6 {
                assert!(with.miss_penalty(loads, wbs) <= without.miss_penalty(loads, wbs));
            }
        }
    }
}
