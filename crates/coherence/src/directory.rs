//! Full-map directories, one per home site.
//!
//! The directory home of a line is chosen by address interleaving across
//! all 64 sites. Each home tracks, per line, the owning site (if the line
//! is dirty somewhere) and the full sharer bit-vector — 64 sites fit a
//! `u64` exactly.

use netcore::{FxHashMap, SiteId};

/// The most sites a directory can track: sharers are one bit per site of
/// a `u64`. Larger grids cannot run directory-backed workloads.
pub const MAX_SITES: usize = 64;

/// The sharing state of one line at its home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// The site holding the line in M or O, if any.
    pub owner: Option<SiteId>,
    /// Bit-vector of sites holding the line in S (and the owner's bit).
    pub sharers: u64,
}

impl DirEntry {
    /// Number of sites holding the line.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// True if no site holds the line.
    pub fn is_idle(&self) -> bool {
        self.sharers == 0 && self.owner.is_none()
    }

    /// Sites holding the line, excluding `except`.
    pub fn sharers_except(&self, except: SiteId) -> Vec<SiteId> {
        (0..64)
            .filter(|&i| self.sharers & (1 << i) != 0 && i != except.index() as u64)
            .map(|i| SiteId::from_index(i as usize))
            .collect()
    }
}

/// One home site's directory.
///
/// # Example
///
/// ```
/// use coherence::directory::Directory;
/// use netcore::SiteId;
///
/// let mut dir = Directory::new();
/// let s3 = SiteId::from_index(3);
/// dir.record_read(0x1000, s3);
/// assert_eq!(dir.entry(0x1000).sharer_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: FxHashMap<u64, DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// The sharing state of `line_addr` (idle if never touched).
    pub fn entry(&self, line_addr: u64) -> DirEntry {
        self.entries.get(&line_addr).copied().unwrap_or_default()
    }

    /// Records that `reader` obtained a readable copy. A previous owner
    /// stays owner (MOESI: M/O supplier keeps the dirty line in O).
    pub fn record_read(&mut self, line_addr: u64, reader: SiteId) {
        let e = self.entries.entry(line_addr).or_default();
        e.sharers |= 1 << reader.index();
    }

    /// Records that `writer` obtained an exclusive dirty copy; everyone
    /// else is invalidated.
    pub fn record_write(&mut self, line_addr: u64, writer: SiteId) {
        let e = self.entries.entry(line_addr).or_default();
        e.owner = Some(writer);
        e.sharers = 1 << writer.index();
    }

    /// Records that `site` dropped its copy (eviction).
    pub fn record_evict(&mut self, line_addr: u64, site: SiteId) {
        if let Some(e) = self.entries.get_mut(&line_addr) {
            e.sharers &= !(1 << site.index());
            if e.owner == Some(site) {
                e.owner = None;
            }
            if e.is_idle() {
                self.entries.remove(&line_addr);
            }
        }
    }

    /// Number of tracked (non-idle) lines.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

/// Address-interleaved home assignment: line address modulo site count.
pub fn home_site(line_addr: u64, sites: usize) -> SiteId {
    SiteId::from_index((line_addr % sites as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> SiteId {
        SiteId::from_index(i)
    }

    #[test]
    fn untouched_lines_are_idle() {
        let dir = Directory::new();
        assert!(dir.entry(0x42).is_idle());
    }

    #[test]
    fn reads_accumulate_sharers() {
        let mut dir = Directory::new();
        dir.record_read(1, s(0));
        dir.record_read(1, s(5));
        dir.record_read(1, s(9));
        let e = dir.entry(1);
        assert_eq!(e.sharer_count(), 3);
        assert_eq!(e.owner, None);
        assert_eq!(e.sharers_except(s(5)), vec![s(0), s(9)]);
    }

    #[test]
    fn write_claims_ownership_and_clears_sharers() {
        let mut dir = Directory::new();
        dir.record_read(1, s(0));
        dir.record_read(1, s(5));
        dir.record_write(1, s(7));
        let e = dir.entry(1);
        assert_eq!(e.owner, Some(s(7)));
        assert_eq!(e.sharer_count(), 1);
        assert!(e.sharers_except(s(7)).is_empty());
    }

    #[test]
    fn read_after_write_keeps_owner() {
        let mut dir = Directory::new();
        dir.record_write(1, s(7));
        dir.record_read(1, s(2));
        let e = dir.entry(1);
        assert_eq!(e.owner, Some(s(7)));
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    fn eviction_removes_site_and_reclaims_idle_entries() {
        let mut dir = Directory::new();
        dir.record_write(1, s(7));
        dir.record_evict(1, s(7));
        assert!(dir.entry(1).is_idle());
        assert_eq!(dir.tracked_lines(), 0);
    }

    #[test]
    fn homes_interleave_across_all_sites() {
        let homes: std::collections::HashSet<_> = (0..128u64).map(|l| home_site(l, 64)).collect();
        assert_eq!(homes.len(), 64);
        assert_eq!(home_site(64, 64), s(0));
        assert_eq!(home_site(65, 64), s(1));
    }
}
