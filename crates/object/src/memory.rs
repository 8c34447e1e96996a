//! The 64 KiB memory block (Table 2).
//!
//! Each memory object contains a 64 KB SRAM ("We used the configuration of
//! 64KB SRAM, trading off for an area", §4.1), addressed here in 64-bit
//! words. Memory blocks serve three roles in the architecture:
//!
//! 1. application data (load/store streams of a configured datapath);
//! 2. the **library** region holding swapped-out logical objects (§2.5);
//! 3. the mailbox through which a *preceding* processor writes inputs into a
//!    *following* processor while the latter is inactive (§3.3, Figure 7(d)).
//!
//! Accesses outside the block are errors — the scaled AP's read/write
//! protection (§3.3) is enforced one level up, in `vlsi-core`.

use crate::error::ObjectError;
use crate::value::Word;

/// Number of 64-bit words in a 64 KiB block.
pub const MEMORY_WORDS: usize = 64 * 1024 / 8;

/// A 64 KiB on-chip SRAM block.
///
/// The backing store is *lazy*: a fresh block owns no heap words, and the
/// vector grows (zero-filled) only up to the highest address ever stored.
/// A scaled processor instantiates one block per memory object at gather
/// time, so an eager 64 KiB memset per block would put megabytes of page
/// traffic on the gather path — the cost §3.4 argues must stay low enough
/// to pay at run time. Loads beyond the touched prefix (but inside the
/// block) read as zero, exactly as an eagerly-zeroed block would.
#[derive(Clone, Debug)]
pub struct MemoryBlock {
    words: Vec<Word>,
    reads: u64,
    writes: u64,
}

impl Default for MemoryBlock {
    fn default() -> Self {
        MemoryBlock::new()
    }
}

impl PartialEq for MemoryBlock {
    fn eq(&self, other: &Self) -> bool {
        // Logical contents: the untouched tail is all zeros, so two blocks
        // with different touched prefixes can still be equal.
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.reads == other.reads
            && self.writes == other.writes
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|w| *w == Word::ZERO)
    }
}

impl MemoryBlock {
    /// A zero-initialised block.
    pub fn new() -> MemoryBlock {
        MemoryBlock {
            words: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        MEMORY_WORDS
    }

    /// Reads the word at `addr` (word address).
    pub fn load(&mut self, addr: u64) -> Result<Word, ObjectError> {
        if addr as usize >= MEMORY_WORDS {
            return Err(ObjectError::AddressOutOfRange {
                addr,
                capacity: MEMORY_WORDS,
            });
        }
        let w = self.words.get(addr as usize).copied().unwrap_or(Word::ZERO);
        self.reads += 1;
        Ok(w)
    }

    /// Writes `value` at `addr` (word address).
    pub fn store(&mut self, addr: u64, value: Word) -> Result<(), ObjectError> {
        let i = addr as usize;
        if i >= MEMORY_WORDS {
            return Err(ObjectError::AddressOutOfRange {
                addr,
                capacity: MEMORY_WORDS,
            });
        }
        if i >= self.words.len() {
            self.words.resize(i + 1, Word::ZERO);
        }
        self.words[i] = value;
        self.writes += 1;
        Ok(())
    }

    /// Reads without counting (for test/assertion plumbing).
    pub fn peek(&self, addr: u64) -> Result<Word, ObjectError> {
        if addr as usize >= MEMORY_WORDS {
            return Err(ObjectError::AddressOutOfRange {
                addr,
                capacity: MEMORY_WORDS,
            });
        }
        Ok(self.words.get(addr as usize).copied().unwrap_or(Word::ZERO))
    }

    /// The word range `addr .. addr + len`, if all of it lies inside the
    /// block; otherwise the error names the first address that does not.
    fn span(addr: u64, len: usize) -> Result<std::ops::Range<usize>, ObjectError> {
        let start = addr.min(MEMORY_WORDS as u64) as usize;
        if len <= MEMORY_WORDS - start {
            return Ok(start..start + len);
        }
        Err(ObjectError::AddressOutOfRange {
            addr: addr.max(MEMORY_WORDS as u64),
            capacity: MEMORY_WORDS,
        })
    }

    /// Bulk-writes a slice starting at `addr`. All or nothing: a slice
    /// that does not fit the block is refused before any word is written.
    pub fn store_slice(&mut self, addr: u64, values: &[Word]) -> Result<(), ObjectError> {
        let span = Self::span(addr, values.len())?;
        if span.end > self.words.len() {
            self.words.resize(span.end, Word::ZERO);
        }
        self.words[span].copy_from_slice(values);
        self.writes += values.len() as u64;
        Ok(())
    }

    /// Bulk-reads `len` words starting at `addr`.
    pub fn load_slice(&mut self, addr: u64, len: usize) -> Result<Vec<Word>, ObjectError> {
        let span = Self::span(addr, len)?;
        // The untouched tail of the block reads as zero.
        let touched = span.start.min(self.words.len())..span.end.min(self.words.len());
        let mut out = self.words[touched].to_vec();
        out.resize(len, Word::ZERO);
        self.reads += len as u64;
        Ok(out)
    }

    /// Total successful reads since construction.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total successful writes since construction.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_64kib_of_words() {
        assert_eq!(MemoryBlock::new().capacity(), 8192);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = MemoryBlock::new();
        m.store(100, Word(0xabcd)).unwrap();
        assert_eq!(m.load(100).unwrap(), Word(0xabcd));
        assert_eq!(m.load(101).unwrap(), Word::ZERO);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut m = MemoryBlock::new();
        assert!(m.load(MEMORY_WORDS as u64).is_err());
        assert!(m.store(u64::MAX, Word(1)).is_err());
        // Last valid word works.
        assert!(m.store(MEMORY_WORDS as u64 - 1, Word(1)).is_ok());
    }

    #[test]
    fn slices() {
        let mut m = MemoryBlock::new();
        m.store_slice(10, &[Word(1), Word(2), Word(3)]).unwrap();
        assert_eq!(
            m.load_slice(10, 3).unwrap(),
            vec![Word(1), Word(2), Word(3)]
        );
        // A slice crossing the end is refused whole: the word that
        // would have fitted is not written, and nothing is counted.
        let last = MEMORY_WORDS as u64 - 1;
        let (reads, writes) = (m.read_count(), m.write_count());
        assert_eq!(
            m.store_slice(last, &[Word(1), Word(2)]),
            Err(ObjectError::AddressOutOfRange {
                addr: MEMORY_WORDS as u64,
                capacity: MEMORY_WORDS
            })
        );
        assert!(m.load_slice(last, 2).is_err());
        assert!(m.store_slice(u64::MAX, &[Word(1)]).is_err());
        assert_eq!(m.peek(last).unwrap(), Word::ZERO);
        assert_eq!((m.read_count(), m.write_count()), (reads, writes));
        // A slice that is the whole block fits, and an untouched tail
        // reads back as zeros.
        let block = vec![Word(7); MEMORY_WORDS];
        m.store_slice(0, &block).unwrap();
        assert_eq!(m.load_slice(0, MEMORY_WORDS).unwrap(), block);
        assert_eq!(m.write_count(), writes + MEMORY_WORDS as u64);
        let mut fresh = MemoryBlock::new();
        fresh.store(1, Word(9)).unwrap();
        assert_eq!(
            fresh.load_slice(0, 4).unwrap(),
            vec![Word::ZERO, Word(9), Word::ZERO, Word::ZERO]
        );
        assert_eq!(fresh.load_slice(last, 1).unwrap(), vec![Word::ZERO]);
    }

    #[test]
    fn lazy_backing_is_observably_zeroed() {
        let mut m = MemoryBlock::new();
        // Untouched words read as zero everywhere inside the block.
        assert_eq!(m.load(MEMORY_WORDS as u64 - 1).unwrap(), Word::ZERO);
        assert_eq!(m.peek(4096).unwrap(), Word::ZERO);
        // Equality is logical content, not allocated length.
        let mut a = MemoryBlock::new();
        let mut b = MemoryBlock::new();
        a.store(5, Word::ZERO).unwrap();
        b.store(100, Word::ZERO).unwrap();
        assert_eq!(a, b);
        b.store(100, Word(1)).unwrap();
        a.store(5, Word::ZERO).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn access_counters() {
        let mut m = MemoryBlock::new();
        m.store(0, Word(1)).unwrap();
        m.load(0).unwrap();
        m.load(0).unwrap();
        let _ = m.load(1 << 40); // failed access: not counted
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 2);
        // peek does not count.
        m.peek(0).unwrap();
        assert_eq!(m.read_count(), 2);
    }
}
