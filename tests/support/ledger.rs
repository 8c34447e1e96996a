//! Per-tick conservation checks over a runtime and its chip: no job and
//! no cluster is ever lost or counted twice.

use std::collections::BTreeSet;
use vlsi_processor::core::VlsiChip;
use vlsi_processor::runtime::Runtime;

/// Asserts the two ledgers after a tick. `label` names the run.
///
/// * Jobs: every submitted job is completed, failed, migrated out or
///   still outstanding — exactly one of them.
/// * Clusters: [`assert_occupancy`] on the runtime's chip.
pub fn assert_balanced(rt: &Runtime, label: &str) {
    let s = rt.stats();
    assert_eq!(
        s.submitted,
        s.completed + s.failed + s.migrated_out + rt.outstanding() as u64,
        "{label}: job ledger"
    );
    assert_occupancy(rt.chip(), label);
}

/// The occupancy ledger alone, on a chip: every live processor owns each
/// cell it lists, no cell is listed twice, and the free, owned healthy
/// and defective cells add up to the whole die.
pub fn assert_occupancy(chip: &VlsiChip, label: &str) {
    let mut listed = BTreeSet::new();
    let mut owned_healthy = 0;
    for p in chip.processors() {
        for c in p.region.cells() {
            assert_eq!(
                chip.processor_at(c),
                Some(p.id),
                "{label}: {} lists {c} but does not own it",
                p.id
            );
            assert!(listed.insert(c), "{label}: {c} listed twice");
            owned_healthy += usize::from(!chip.is_defective(c));
        }
    }
    assert_eq!(
        chip.free_clusters() + owned_healthy + chip.defective_count(),
        chip.total_clusters(),
        "{label}: occupancy ledger"
    );
}
