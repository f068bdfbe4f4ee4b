//! Slab allocator for in-flight packets.
//!
//! Networks used to carry whole [`Packet`] values (~104 bytes) inside
//! their event payloads and hold queues; the slab replaces that with
//! 4-byte [`PacketRef`] indices into a per-network arena whose slots are
//! recycled through a free list. Delivery takes the packet back out of the
//! slab, so at a clean idle every slot has returned to the free list —
//! an invariant the audit layer checks after each run.
//!
//! A `PacketRef` held past its `take` would silently alias whatever
//! packet next reuses the slot. Debug builds (the default `cargo test`
//! profile) keep a per-slot occupied flag and panic on any `get`,
//! `get_mut` or `take` of a freed slot, so such a bug fails loudly
//! instead; release builds carry no flag and no check.

use crate::Packet;

/// Index of a live packet inside a [`PacketSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

impl PacketRef {
    /// The raw slot index (stable for the packet's time in the slab).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Allocation counters, exposed through `Network::slab_stats` and checked
/// by the audit layer's slab-leak invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabStats {
    /// Packets ever inserted.
    pub allocated: u64,
    /// Packets ever taken back out.
    pub freed: u64,
    /// Packets currently resident (`allocated - freed`).
    pub live: u64,
    /// Maximum simultaneous residency observed.
    pub high_water: u64,
    /// Arena capacity in slots.
    pub slots: usize,
}

impl SlabStats {
    /// Merges counters from another slab (wrappers aggregate inner slabs).
    pub fn merge(self, other: SlabStats) -> SlabStats {
        SlabStats {
            allocated: self.allocated + other.allocated,
            freed: self.freed + other.freed,
            live: self.live + other.live,
            high_water: self.high_water + other.high_water,
            slots: self.slots + other.slots,
        }
    }
}

/// An arena of in-flight packets addressed by [`PacketRef`].
#[derive(Debug, Clone)]
pub struct PacketSlab {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Per-slot "holds a packet" flag, debug builds only: catches stale
    /// refs.
    #[cfg(debug_assertions)]
    occupied: Vec<bool>,
    allocated: u64,
    freed: u64,
    high_water: u64,
}

impl PacketSlab {
    /// Creates an empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab {
            // A few cache-lines' worth of slots up front: steady-state
            // traffic then grows the slab rarely, and construction is off
            // every measured path.
            slots: Vec::with_capacity(512),
            free: Vec::with_capacity(512),
            #[cfg(debug_assertions)]
            occupied: Vec::with_capacity(512),
            allocated: 0,
            freed: 0,
            high_water: 0,
        }
    }

    /// Stores `packet`, returning its slot reference.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        self.allocated += 1;
        let live = self.allocated - self.freed;
        if live > self.high_water {
            self.high_water = live;
        }
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = packet;
            #[cfg(debug_assertions)]
            {
                self.occupied[idx as usize] = true;
            }
            return PacketRef(idx);
        }
        let idx = u32::try_from(self.slots.len()).expect("packet slab overflow");
        self.slots.push(packet);
        #[cfg(debug_assertions)]
        self.occupied.push(true);
        PacketRef(idx)
    }

    /// Panics if `r` names a freed slot.
    #[cfg(debug_assertions)]
    fn check_live(&self, r: PacketRef) {
        assert!(
            self.occupied[r.0 as usize],
            "stale PacketRef {}: slot already taken",
            r.0
        );
    }

    /// Release builds keep no flags and check nothing.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn check_live(&self, _: PacketRef) {}

    /// Reads a resident packet.
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.check_live(r);
        &self.slots[r.0 as usize]
    }

    /// Mutates a resident packet (timestamp/stat stamping in place).
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.check_live(r);
        &mut self.slots[r.0 as usize]
    }

    /// Removes the packet, releasing the slot for recycling.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        self.check_live(r);
        #[cfg(debug_assertions)]
        {
            self.occupied[r.0 as usize] = false;
        }
        self.freed += 1;
        self.free.push(r.0);
        self.slots[r.0 as usize]
    }

    /// Packets currently resident.
    pub fn live(&self) -> u64 {
        self.allocated - self.freed
    }

    /// Allocation counters for the audit layer.
    pub fn stats(&self) -> SlabStats {
        SlabStats {
            allocated: self.allocated,
            freed: self.freed,
            live: self.live(),
            high_water: self.high_water,
            slots: self.slots.len(),
        }
    }
}

impl Default for PacketSlab {
    fn default() -> Self {
        PacketSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MessageKind, PacketId, SiteId};
    use desim::Time;

    fn packet(id: u64) -> Packet {
        Packet::new(
            PacketId(id),
            SiteId::from_index(0),
            SiteId::from_index(1),
            64,
            MessageKind::Data,
            Time::ZERO,
        )
    }

    #[test]
    fn recycles_slots_after_drain() {
        let mut slab = PacketSlab::new();
        let refs: Vec<PacketRef> = (0..8).map(|i| slab.insert(packet(i))).collect();
        assert_eq!(slab.stats().slots, 8);
        for r in refs {
            slab.take(r);
        }
        // A fully drained slab reuses its slots: the arena must not grow.
        for i in 8..16 {
            slab.insert(packet(i));
        }
        assert_eq!(slab.stats().slots, 8, "drained slots must be reused");
        assert_eq!(slab.stats().high_water, 8);
    }

    #[test]
    fn no_aliasing_under_interleaved_inject_and_deliver() {
        // Two independent slabs (as two networks would own) with
        // interleaved inserts and takes: every ref must read back exactly
        // the packet it was created for, despite slot recycling.
        let mut left = PacketSlab::new();
        let mut right = PacketSlab::new();
        let mut live: Vec<(bool, PacketRef, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0u64..1000 {
            // Deterministic interleaving: mix inserts and takes, biased to
            // churn both slabs' free lists.
            let action = (step * 2654435761) % 5;
            if action < 3 || live.is_empty() {
                let use_left = step % 2 == 0;
                let slab = if use_left { &mut left } else { &mut right };
                let r = slab.insert(packet(next_id));
                live.push((use_left, r, next_id));
                next_id += 1;
            } else {
                let pick = usize::try_from(step * 40503).unwrap() % live.len();
                let (use_left, r, id) = live.swap_remove(pick);
                let slab = if use_left { &mut left } else { &mut right };
                assert_eq!(slab.get(r).id, PacketId(id), "ref read stale slot");
                let p = slab.take(r);
                assert_eq!(p.id, PacketId(id));
            }
        }
        // Drain the rest; each must still resolve to its own packet.
        for (use_left, r, id) in live {
            let slab = if use_left { &mut left } else { &mut right };
            assert_eq!(slab.take(r).id, PacketId(id));
        }
        assert_eq!(left.live(), 0);
        assert_eq!(right.live(), 0);
    }

    #[test]
    fn leak_check_returns_to_high_water_free_count_at_idle() {
        let mut slab = PacketSlab::new();
        let refs: Vec<PacketRef> = (0..32).map(|i| slab.insert(packet(i))).collect();
        for r in refs {
            slab.take(r);
        }
        let s = slab.stats();
        assert_eq!(s.live, 0, "idle slab must hold no packets");
        assert_eq!(s.allocated, s.freed);
        // Every high-water slot is back on the free list.
        assert_eq!(s.slots as u64, s.high_water);
        assert_eq!(slab.free.len() as u64, s.high_water);
    }

    // The liveness check exists in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn take_twice_panics() {
        let mut slab = PacketSlab::new();
        let r = slab.insert(packet(0));
        slab.take(r);
        slab.take(r);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn get_after_take_panics() {
        let mut slab = PacketSlab::new();
        let r = slab.insert(packet(0));
        slab.take(r);
        slab.get(r);
    }
}
