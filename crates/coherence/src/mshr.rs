//! Miss-status holding registers: the paper models finite MSHRs per site
//! (§5). When a site's MSHRs are exhausted, further misses stall until an
//! outstanding operation completes.

use std::collections::HashSet;

/// A site's finite file of miss-status holding registers.
///
/// # Example
///
/// ```
/// use coherence::mshr::MshrFile;
///
/// let mut mshrs = MshrFile::new(2);
/// assert!(mshrs.try_allocate(0x40));
/// assert!(mshrs.try_allocate(0x80));
/// assert!(!mshrs.try_allocate(0xC0)); // full
/// mshrs.release(0x40);
/// assert!(mshrs.try_allocate(0xC0));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    outstanding: HashSet<u64>,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile {
            capacity,
            outstanding: HashSet::new(),
        }
    }

    /// Allocates a register for a miss on `line_addr`.
    ///
    /// Returns false when the file is full **or** the line already has an
    /// outstanding miss (secondary misses merge into the primary, needing
    /// no new register and no new network traffic).
    pub fn try_allocate(&mut self, line_addr: u64) -> bool {
        if self.outstanding.contains(&line_addr) {
            return false;
        }
        if self.outstanding.len() >= self.capacity {
            return false;
        }
        self.outstanding.insert(line_addr);
        true
    }

    /// True if `line_addr` already has an outstanding miss.
    pub fn is_pending(&self, line_addr: u64) -> bool {
        self.outstanding.contains(&line_addr)
    }

    /// Releases the register held for `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if the line had no outstanding miss, in release builds
    /// too: a double release is a protocol bug, and the check runs once
    /// per completed miss.
    pub fn release(&mut self, line_addr: u64) {
        let was_present = self.outstanding.remove(&line_addr);
        assert!(was_present, "released an MSHR that was never allocated");
    }

    /// Registers currently in use.
    pub fn in_use(&self) -> usize {
        self.outstanding.len()
    }

    /// True when no register is free.
    pub fn is_full(&self) -> bool {
        self.outstanding.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_up_to_capacity() {
        let mut m = MshrFile::new(3);
        assert!(m.try_allocate(1));
        assert!(m.try_allocate(2));
        assert!(m.try_allocate(3));
        assert!(m.is_full());
        assert!(!m.try_allocate(4));
        assert_eq!(m.in_use(), 3);
    }

    #[test]
    fn duplicate_line_does_not_double_allocate() {
        let mut m = MshrFile::new(2);
        assert!(m.try_allocate(7));
        assert!(!m.try_allocate(7));
        assert!(m.is_pending(7));
        assert_eq!(m.in_use(), 1);
    }

    #[test]
    fn release_frees_capacity() {
        let mut m = MshrFile::new(1);
        assert!(m.try_allocate(1));
        m.release(1);
        assert!(!m.is_pending(1));
        assert!(m.try_allocate(2));
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn double_release_is_a_bug() {
        let mut m = MshrFile::new(1);
        m.try_allocate(1);
        m.release(1);
        m.release(1);
    }
}
