//! The fixed-capacity MPSC submission ring.
//!
//! External producers enqueue while the cluster ticks; the service drains
//! at tick boundaries only, in ring order. The design is a bounded
//! Vyukov-style queue with seqlock-style slot sequence numbers, built
//! entirely in safe Rust (the workspace forbids `unsafe`): each slot
//! pairs an `AtomicU64` sequence word with a mutex-held cell. The
//! sequence protocol guarantees the cell mutex is **uncontended** — a
//! producer only touches a cell after winning the CAS on `tail` for
//! that position, and the consumer only after observing the producer's
//! release-store of the sequence — so the mutex is a formality for the
//! borrow checker, not a lock anyone waits on.
//!
//! Slot `i` carries sequence values in lockstep with the positions that
//! map to it: `seq == pos` means "free for the producer claiming
//! `pos`", `seq == pos + 1` means "filled, awaiting the consumer", and
//! the consumer recycles the slot with `seq = pos + capacity` for the
//! next lap. A producer whose claimed position sits a full `capacity`
//! ahead of the consumer's head has lapped the drain: the ring is full,
//! and the push returns a typed [`IngestError::RingFull`] — never a
//! silent drop.
//!
//! Every successful push returns its global position, a total order
//! over all producers; the consumer pops in exactly that order, which
//! is what makes replay bit-identical given the same arrival trace.

use crate::error::IngestError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Slot<T> {
    seq: AtomicU64,
    cell: Mutex<Option<T>>,
}

/// A fixed-capacity multi-producer single-consumer ring. See the
/// [module docs](self) for the slot protocol.
pub struct SubmissionRing<T> {
    slots: Box<[Slot<T>]>,
    /// Next position a producer claims.
    tail: AtomicU64,
    /// Next position the consumer drains.
    head: AtomicU64,
}

impl<T> SubmissionRing<T> {
    /// A ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> SubmissionRing<T> {
        let capacity = capacity.max(1);
        let slots: Vec<Slot<T>> = (0..capacity)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                cell: Mutex::new(None),
            })
            .collect();
        SubmissionRing {
            slots: slots.into_boxed_slice(),
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently enqueued (approximate under concurrent
    /// producers; exact at a tick boundary when producers are quiet).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value` from any producer thread. Returns the global
    /// enqueue position on success (the total order the consumer drains
    /// in), or [`IngestError::RingFull`] — the typed backpressure
    /// signal — when the ring is at capacity.
    pub fn try_push(&self, value: T) -> Result<u64, IngestError> {
        let cap = self.slots.len() as u64;
        let mut pos = self.tail.load(Ordering::Acquire);
        loop {
            // Full check against the consumer's head: `cap` undrained
            // positions ahead of head means every slot is occupied.
            // Head only grows, so a stale read can at worst report a
            // ring that *was* full a moment ago — typed backpressure
            // the producer retries, never a lost entry.
            let head = self.head.load(Ordering::Acquire);
            if pos.saturating_sub(head) >= cap {
                return Err(IngestError::RingFull {
                    capacity: self.slots.len(),
                });
            }
            let slot = &self.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // This producer owns the slot exclusively until
                        // the release-store below publishes it.
                        *slot.cell.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(pos);
                    }
                    Err(current) => pos = current,
                }
            } else {
                // Another producer claimed `pos` (tail moved), or the
                // consumer is mid-recycle; chase the tail. Progress is
                // guaranteed: either tail has advanced, or the slot's
                // recycled sequence lands and the claim above succeeds,
                // or the full check fires.
                pos = self.tail.load(Ordering::Acquire);
            }
        }
    }

    /// Dequeues the next entry in enqueue order, with its global
    /// position, or `None` when the ring is empty (or the producer that
    /// claimed the head slot has not finished publishing it — the
    /// consumer simply sees it next drain). Single consumer only.
    pub fn try_pop(&self) -> Option<(u64, T)> {
        let cap = self.slots.len() as u64;
        let pos = self.head.load(Ordering::Acquire);
        let slot = &self.slots[(pos % cap) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != pos + 1 {
            return None;
        }
        // A published slot always holds its value: the producer stores
        // it before the release-store of `seq` observed above.
        let value = slot.cell.lock().unwrap_or_else(|e| e.into_inner()).take()?;
        // Recycle the slot for the producer one lap ahead.
        slot.seq.store(pos + cap, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
        Some((pos, value))
    }

    /// Drains every currently published entry in enqueue order — the
    /// tick-boundary consumer step.
    pub fn drain(&self) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while let Some(e) = self.try_pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drain_order_is_enqueue_order() {
        let ring = SubmissionRing::new(8);
        for v in 0..5u32 {
            ring.try_push(v).unwrap();
        }
        let drained = ring.drain();
        assert_eq!(
            drained,
            (0..5).map(|v| (v as u64, v)).collect::<Vec<_>>(),
            "positions and values in enqueue order"
        );
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_reports_typed_backpressure() {
        let ring = SubmissionRing::new(4);
        for v in 0..4u32 {
            ring.try_push(v).unwrap();
        }
        assert_eq!(
            ring.try_push(99),
            Err(IngestError::RingFull { capacity: 4 }),
            "no silent drop"
        );
        assert_eq!(ring.len(), 4);
        // Draining one slot frees exactly one push.
        assert_eq!(ring.try_pop(), Some((0, 0)));
        assert_eq!(ring.try_push(99), Ok(4));
        assert_eq!(
            ring.try_push(100),
            Err(IngestError::RingFull { capacity: 4 })
        );
    }

    #[test]
    fn wrap_around_many_laps() {
        let ring = SubmissionRing::new(3);
        let mut expect = 0u64;
        for round in 0..100u64 {
            ring.try_push(round * 2).unwrap();
            ring.try_push(round * 2 + 1).unwrap();
            for (pos, v) in ring.drain() {
                assert_eq!(pos, expect);
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        assert_eq!(expect, 200);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let ring = Arc::new(SubmissionRing::new(64));
        let producers = 4;
        let per = 500u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                let mut pushed = 0u64;
                while pushed < per {
                    if ring.try_push(p as u64 * per + pushed).is_ok() {
                        pushed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut seen = Vec::new();
        while seen.len() < (producers as usize) * per as usize {
            for (_, v) in ring.drain() {
                seen.push(v);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(ring.is_empty());
        // Every value arrived exactly once, and each producer's own
        // values arrived in its program order.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..producers as u64 * per).collect::<Vec<_>>());
        for p in 0..producers as u64 {
            let mine: Vec<u64> = seen.iter().copied().filter(|v| *v / per == p).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "FIFO per producer");
        }
    }
}
