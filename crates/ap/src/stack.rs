//! The object stack: placement, stack shift, and LRU replacement (§2.4).
//!
//! "An array of physical objects composes a stack structure. The stack
//! structure creates a deterministic and locality based placement; this
//! placement is always on the top of the stack. Because a stack shift sorts
//! the objects in the array, a replacement, based on an LRU algorithm, is
//! easily implemented, and objects close to the bottom of the stack are
//! candidates for the replacement."
//!
//! The representation exploits the architecture directly: depth `i` of the
//! stack *is* physical slot `i` of the array, because logical objects — not
//! physical elements — are what shifts. A hit at depth `d` reports the
//! **stack distance** `d` (Mattson et al. \[11\]); the hit object is pulled to
//! the top and the objects above it sink one slot, which is exactly what
//! makes the structure an LRU stack and gives the inclusion property the
//! paper's CACHE model relies on: a trace's hits at capacity `C` are a
//! subset of its hits at any larger capacity.

use crate::metrics::ApMetrics;
use vlsi_object::{BoundObject, LogicalObject, ObjectId};

/// Outcome of referencing an object in the stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReferenceOutcome {
    /// The object was resident; `distance` is its stack depth before the
    /// reference (0 = already on top).
    Hit {
        /// Stack distance of the reference.
        distance: usize,
    },
    /// The object was not resident: an object cache miss. The caller must
    /// load it from the library and [`ObjectStack::insert_top`] it.
    Miss,
}

/// The stack of bound objects occupying the compute array.
#[derive(Clone, Debug)]
pub struct ObjectStack {
    /// `entries[0]` is the top of the stack (most recently placed/used).
    entries: Vec<BoundObject>,
    /// Array capacity `C` — the number of compute physical objects.
    capacity: usize,
    shifts: u64,
    rotations: u64,
}

impl ObjectStack {
    /// An empty stack over an array of `capacity` compute objects.
    pub fn new(capacity: usize) -> ObjectStack {
        ObjectStack {
            entries: Vec::with_capacity(capacity),
            capacity,
            shifts: 0,
            rotations: 0,
        }
    }

    /// The array capacity `C`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stack holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a further insertion would evict.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// References `id`: a hit pulls it to the top (LRU refresh) and
    /// reports its previous depth; a miss leaves the stack untouched.
    pub fn reference(&mut self, id: ObjectId) -> ReferenceOutcome {
        match self.position_of(id) {
            Some(d) => {
                if d > 0 {
                    let obj = self.entries.remove(d);
                    self.entries.insert(0, obj);
                    self.rotations += 1;
                }
                ReferenceOutcome::Hit { distance: d }
            }
            None => ReferenceOutcome::Miss,
        }
    }

    /// Looks up the depth of `id` without refreshing recency.
    pub fn position_of(&self, id: ObjectId) -> Option<usize> {
        self.entries.iter().position(|b| b.id() == id)
    }

    /// Enters a loaded object at the top through a stack shift ("the
    /// processor forces a stack shift from the top of the stack to the
    /// bottom of the stack to enter the loaded logical object(s)", §2.3).
    ///
    /// Returns the evicted bottom object when the stack was full — the LRU
    /// replacement victim, which the caller must write back to the library
    /// (§2.5).
    pub fn insert_top(&mut self, obj: BoundObject) -> Option<BoundObject> {
        debug_assert!(
            self.position_of(obj.id()).is_none(),
            "inserting an object that is already resident"
        );
        self.shifts += 1;
        let evicted = if self.is_full() {
            self.entries.pop()
        } else {
            None
        };
        self.entries.insert(0, obj);
        evicted
    }

    /// Removes `id` from the stack (object release: the slots below it pop
    /// up by one, i.e. a reverse shift).
    pub fn remove(&mut self, id: ObjectId) -> Option<BoundObject> {
        let d = self.position_of(id)?;
        Some(self.entries.remove(d))
    }

    /// Borrow the bound object with `id`.
    pub fn get(&self, id: ObjectId) -> Option<&BoundObject> {
        self.entries.iter().find(|b| b.id() == id)
    }

    /// Mutably borrow the bound object with `id`.
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut BoundObject> {
        self.entries.iter_mut().find(|b| b.id() == id)
    }

    /// Iterates top-to-bottom.
    pub fn iter(&self) -> impl Iterator<Item = &BoundObject> {
        self.entries.iter()
    }

    /// Resident object IDs, top-to-bottom.
    pub fn resident_ids(&self) -> Vec<ObjectId> {
        self.entries.iter().map(|b| b.id()).collect()
    }

    /// The LRU replacement candidate (bottom of the stack), if any.
    pub fn replacement_candidate(&self) -> Option<ObjectId> {
        self.entries.last().map(|b| b.id())
    }

    /// Drains the whole stack bottom-up, unbinding each object — used when
    /// a processor is released and its state written back.
    pub fn drain_write_back(&mut self) -> Vec<LogicalObject> {
        let mut out: Vec<LogicalObject> = Vec::with_capacity(self.entries.len());
        while let Some(b) = self.entries.pop() {
            out.push(b.unbind());
        }
        out
    }

    /// Folds this stack's counters into `m`.
    pub fn report(&self, m: &mut ApMetrics) {
        m.stack_shifts = self.shifts;
    }

    /// Full stack shifts performed (insertions at the top).
    pub fn shift_count(&self) -> u64 {
        self.shifts
    }

    /// Hit rotations performed (LRU refreshes).
    pub fn rotation_count(&self) -> u64 {
        self.rotations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::{LocalConfig, Operation, Word};

    fn obj(id: u32) -> BoundObject {
        BoundObject::bind(LogicalObject::compute(
            ObjectId(id),
            LocalConfig::op(Operation::IAdd),
        ))
    }

    #[test]
    fn placement_is_always_top_of_stack() {
        let mut s = ObjectStack::new(4);
        s.insert_top(obj(1));
        s.insert_top(obj(2));
        s.insert_top(obj(3));
        assert_eq!(
            s.resident_ids(),
            vec![ObjectId(3), ObjectId(2), ObjectId(1)]
        );
    }

    #[test]
    fn hit_reports_stack_distance_and_refreshes() {
        let mut s = ObjectStack::new(4);
        for i in 1..=3 {
            s.insert_top(obj(i));
        }
        // 1 is at depth 2.
        assert_eq!(
            s.reference(ObjectId(1)),
            ReferenceOutcome::Hit { distance: 2 }
        );
        // After the reference it is on top.
        assert_eq!(
            s.reference(ObjectId(1)),
            ReferenceOutcome::Hit { distance: 0 }
        );
        assert_eq!(s.resident_ids()[0], ObjectId(1));
    }

    #[test]
    fn miss_leaves_stack_untouched() {
        let mut s = ObjectStack::new(4);
        s.insert_top(obj(1));
        let before = s.resident_ids();
        assert_eq!(s.reference(ObjectId(9)), ReferenceOutcome::Miss);
        assert_eq!(s.resident_ids(), before);
    }

    #[test]
    fn full_stack_evicts_lru_bottom() {
        let mut s = ObjectStack::new(2);
        assert!(s.insert_top(obj(1)).is_none());
        assert!(s.insert_top(obj(2)).is_none());
        assert_eq!(s.replacement_candidate(), Some(ObjectId(1)));
        let evicted = s.insert_top(obj(3)).expect("must evict");
        assert_eq!(evicted.id(), ObjectId(1));
        assert_eq!(s.resident_ids(), vec![ObjectId(3), ObjectId(2)]);
    }

    #[test]
    fn lru_order_follows_references() {
        let mut s = ObjectStack::new(3);
        for i in 1..=3 {
            s.insert_top(obj(i));
        }
        // Touch 1 (deepest): order becomes 1,3,2 and 2 is now the victim.
        s.reference(ObjectId(1));
        let evicted = s.insert_top(obj(4)).unwrap();
        assert_eq!(evicted.id(), ObjectId(2));
    }

    #[test]
    fn remove_pops_object_out() {
        let mut s = ObjectStack::new(3);
        for i in 1..=3 {
            s.insert_top(obj(i));
        }
        let r = s.remove(ObjectId(2)).unwrap();
        assert_eq!(r.id(), ObjectId(2));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ObjectId(2)).is_none());
    }

    #[test]
    fn drain_write_back_unbinds_everything() {
        let mut s = ObjectStack::new(3);
        s.insert_top(obj(1));
        let mut b = obj(2);
        b.regs[0] = Word(42);
        s.insert_top(b);
        let drained = s.drain_write_back();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        // Live state written back into the logical object.
        let two = drained.iter().find(|l| l.id == ObjectId(2)).unwrap();
        assert_eq!(two.init[0], Word(42));
    }

    #[test]
    fn counters() {
        let mut s = ObjectStack::new(2);
        s.insert_top(obj(1));
        s.insert_top(obj(2));
        s.reference(ObjectId(1));
        assert_eq!(s.shift_count(), 2);
        assert_eq!(s.rotation_count(), 1);
        // Distance-0 hits do not rotate.
        s.reference(ObjectId(1));
        assert_eq!(s.rotation_count(), 1);
    }
}
