//! Open-loop packet traffic for the latency-vs-load sweeps (Figure 6).
//!
//! Each site injects 64-byte packets with exponentially distributed
//! inter-arrival times; the offered load is expressed as a fraction of the
//! 320 bytes/ns per-site peak, exactly as on Figure 6's x-axis.

use crate::patterns::{DestinationGen, Pattern};
use desim::{SimRng, Span, Time};
use netcore::{Grid, MessageKind, Packet, PacketId, PacketSource, SiteId};

/// An open-loop Poisson packet source following a synthetic pattern.
///
/// # Example
///
/// ```
/// use netcore::{Grid, PacketSource};
/// use workloads::{OpenLoopTraffic, Pattern};
///
/// let grid = Grid::new(8);
/// // 10% of the 320 B/ns per-site peak, 64 B packets.
/// let traffic = OpenLoopTraffic::new(&grid, Pattern::Uniform, 0.10, 320.0, 64, 42);
/// assert!(traffic.next_emission().is_some());
/// ```
pub struct OpenLoopTraffic {
    grid: Grid,
    dest: DestinationGen,
    rng: SimRng,
    /// Min-heap over the still-active sites' next emission instants; a
    /// finished site leaves it. Its root answers the driver's
    /// per-iteration [`next_emission`](PacketSource::next_emission)
    /// probe, and finding and re-keying the due site is O(log sites) per
    /// packet instead of a full scan per call.
    pending: SiteHeap,
    /// Scratch for the sites due in one `emit_due` call.
    due: Vec<(Time, usize)>,
    mean_gap: Span,
    bytes: u32,
    next_id: u64,
    /// No packet is created at or after this deadline.
    horizon: Time,
    emitted: u64,
}

impl OpenLoopTraffic {
    /// Creates a source injecting at `load_fraction` of `site_peak_bytes_per_ns`
    /// per site, in packets of `bytes`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the load fraction or packet size is not positive.
    pub fn new(
        grid: &Grid,
        pattern: Pattern,
        load_fraction: f64,
        site_peak_bytes_per_ns: f64,
        bytes: u32,
        seed: u64,
    ) -> OpenLoopTraffic {
        assert!(
            load_fraction > 0.0 && load_fraction.is_finite(),
            "load fraction must be positive"
        );
        assert!(bytes > 0, "packets must be non-empty");
        let rate = load_fraction * site_peak_bytes_per_ns; // bytes/ns per site

        // Clamp to the 1-ps simulation tick: at extreme offered loads the
        // exact gap rounds to zero, which `exp_span` rejects (and a zero
        // gap would re-inject at the same instant forever).
        let mean_gap = Span::from_ns_f64(bytes as f64 / rate).max(Span::from_ps(1));
        let mut rng = SimRng::new(seed);
        // Desynchronize sites from the start.
        let pending = SiteHeap::new(
            (0..grid.sites()).map(|site| (Time::ZERO + rng.exp_span(mean_gap), site)),
        );
        OpenLoopTraffic {
            grid: *grid,
            dest: DestinationGen::new(pattern, grid),
            rng,
            pending,
            due: Vec::new(),
            mean_gap,
            bytes,
            next_id: 0,
            horizon: Time::MAX,
            emitted: 0,
        }
    }

    /// Stops creating new packets at or after `deadline` (in-flight traffic
    /// still drains).
    pub fn set_horizon(&mut self, deadline: Time) {
        self.horizon = deadline;
        self.pending.retain_before(deadline);
    }

    /// Packets created so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Mean inter-arrival gap per site.
    pub fn mean_gap(&self) -> Span {
        self.mean_gap
    }

    /// Emits every packet `site` creates from its due instant `at` up to
    /// `now` and returns its next instant: after `now`, or `Time::MAX`
    /// once the horizon is reached.
    fn emit_site(&mut self, site: usize, mut at: Time, now: Time, out: &mut Vec<Packet>) -> Time {
        let src = SiteId::from_index(site);
        loop {
            let dst = self.dest.next(src, &self.grid, &mut self.rng);
            out.push(Packet::new(
                PacketId(self.next_id),
                src,
                dst,
                self.bytes,
                MessageKind::Data,
                at,
            ));
            self.next_id += 1;
            self.emitted += 1;
            let next = at + self.rng.exp_span(self.mean_gap);
            let next = if next >= self.horizon {
                Time::MAX
            } else {
                next
            };
            if next > now {
                return next;
            }
            at = next;
        }
    }
}

/// A binary min-heap over `(instant, site)`, stored level by level in one
/// vector. Unlike `std::collections::BinaryHeap` it exposes the root's
/// children, so [`OpenLoopTraffic::emit_due`] can tell that only the root
/// is due, and it re-keys the root with one sift instead of a pop and a
/// push. Sites are unique, so the order is total and the root depends only
/// on the heap's contents, never on how they were inserted.
struct SiteHeap {
    /// Each entry packed as `instant_ps << 64 | site`, so one integer
    /// comparison orders entries by instant, then site.
    slots: Vec<u128>,
}

fn pack((t, site): (Time, usize)) -> u128 {
    (u128::from(t.as_ps()) << 64) | site as u128
}

fn unpack(key: u128) -> (Time, usize) {
    // The low half holds a site index, which fits a `usize`.
    (Time::from_ps((key >> 64) as u64), key as u64 as usize)
}

impl SiteHeap {
    /// The heap of `entries`, one per site.
    fn new(entries: impl IntoIterator<Item = (Time, usize)>) -> SiteHeap {
        let mut heap = SiteHeap {
            slots: entries.into_iter().map(pack).collect(),
        };
        for i in (0..heap.slots.len() / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// Drops every entry at or after `deadline`.
    fn retain_before(&mut self, deadline: Time) {
        let slots = std::mem::take(&mut self.slots);
        *self = SiteHeap::new(slots.into_iter().map(unpack).filter(|&(t, _)| t < deadline));
    }

    /// The earliest entry, or `None` when empty.
    fn root(&self) -> Option<(Time, usize)> {
        self.slots.first().map(|&key| unpack(key))
    }

    /// The earliest entry if it is due at `now`.
    fn root_due(&self, now: Time) -> Option<(Time, usize)> {
        self.root().filter(|&(t, _)| t <= now)
    }

    /// True when an entry besides the root is due at `now`: by the heap
    /// order, only one of the root's children can be the next earliest.
    fn second_due(&self, now: Time) -> bool {
        self.slots
            .iter()
            .skip(1)
            .take(2)
            .any(|&key| unpack(key).0 <= now)
    }

    fn push(&mut self, entry: (Time, usize)) {
        self.slots.push(pack(entry));
        self.sift_up(self.slots.len() - 1, 0);
    }

    /// Removes the earliest entry. Panics when empty.
    fn pop_root(&mut self) {
        let last = self.slots.pop().expect("pop from an empty heap");
        if !self.slots.is_empty() {
            self.slots[0] = last;
            self.sift_down(0);
        }
    }

    /// Replaces the earliest entry with `entry` and restores the order.
    fn replace_root(&mut self, entry: (Time, usize)) {
        self.slots[0] = pack(entry);
        self.sift_down(0);
    }

    /// Restores the order below `top` for the entry there. The hole walks
    /// down to a leaf along the smaller children, one comparison per
    /// level, and the entry then sifts up, never above `top`: a re-keyed
    /// site usually lands near the bottom, so this compares less than
    /// testing the entry at every level on the way down.
    fn sift_down(&mut self, top: usize) {
        let key = self.slots[top];
        let len = self.slots.len();
        let mut hole = top;
        let mut child = 2 * top + 1;
        while child + 1 < len {
            child += usize::from(self.slots[child + 1] < self.slots[child]);
            self.slots[hole] = self.slots[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < len {
            self.slots[hole] = self.slots[child];
            hole = child;
        }
        self.slots[hole] = key;
        self.sift_up(hole, top);
    }

    /// Moves the entry at `hole` up while it is earlier than its parent,
    /// no higher than `top`.
    fn sift_up(&mut self, mut hole: usize, top: usize) {
        let key = self.slots[hole];
        while hole > top {
            let parent = (hole - 1) / 2;
            if self.slots[parent] <= key {
                break;
            }
            self.slots[hole] = self.slots[parent];
            hole = parent;
        }
        self.slots[hole] = key;
    }
}

impl PacketSource for OpenLoopTraffic {
    fn next_emission(&self) -> Option<Time> {
        self.pending.root().map(|(t, _)| t)
    }

    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        let Some((t, site)) = self.pending.root_due(now) else {
            return;
        };
        if !self.pending.second_due(now) {
            // Only the earliest site is due (the common case): emit it and
            // re-key it in place with one sift.
            match self.emit_site(site, t, now, out) {
                Time::MAX => self.pending.pop_root(),
                next => self.pending.replace_root((next, site)),
            }
        } else {
            // Pop every due site off the heap, then visit them in
            // ascending site order, draining each site's due instants
            // before moving on — the exact emission order of a full
            // `0..sites` scan, which the RNG stream (and so every
            // downstream result) depends on.
            let mut due = std::mem::take(&mut self.due);
            due.clear();
            while let Some(entry) = self.pending.root_due(now) {
                due.push(entry);
                self.pending.pop_root();
            }
            due.sort_unstable_by_key(|&(_, site)| site);
            for &(t, site) in &due {
                let next = self.emit_site(site, t, now, out);
                if next < Time::MAX {
                    self.pending.push((next, site));
                }
            }
            self.due = due;
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Time) {}

    fn is_exhausted(&self) -> bool {
        self.pending.root().is_none()
    }

    /// The emission schedule is fixed at construction; deliveries change
    /// nothing, so the driver may batch network events between emissions.
    fn reacts_to_delivery(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(load: f64) -> OpenLoopTraffic {
        OpenLoopTraffic::new(&Grid::new(8), Pattern::Uniform, load, 320.0, 64, 1)
    }

    #[test]
    fn rate_matches_offered_load() {
        // At 50% of 320 B/ns with 64 B packets, each site injects every
        // 0.4 ns on average: over 1 us, ~160,000 packets total.
        let mut s = source(0.5);
        s.set_horizon(Time::from_us(1));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        let n = out.len() as f64;
        assert!((n - 160_000.0).abs() < 8_000.0, "emitted {n}");
        assert!(s.is_exhausted());
    }

    #[test]
    fn packets_are_timestamped_in_order_per_site() {
        let mut s = source(0.1);
        s.set_horizon(Time::from_us(1));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        let mut last = vec![Time::ZERO; 64];
        for p in &out {
            assert!(p.created >= last[p.src.index()]);
            last[p.src.index()] = p.created;
        }
    }

    #[test]
    fn horizon_stops_creation() {
        let mut s = source(1.0);
        s.set_horizon(Time::from_ns(100));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        assert!(out.iter().all(|p| p.created < Time::from_ns(100)));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = |seed| {
            let mut s = OpenLoopTraffic::new(&Grid::new(8), Pattern::Uniform, 0.2, 320.0, 64, seed);
            s.set_horizon(Time::from_ns(500));
            let mut out = Vec::new();
            while let Some(t) = s.next_emission() {
                s.emit_due(t, &mut out);
            }
            out.iter()
                .map(|p| (p.src, p.dst, p.created))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn unique_packet_ids() {
        let mut s = source(0.3);
        s.set_horizon(Time::from_ns(300));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        let ids: std::collections::HashSet<_> = out.iter().map(|p| p.id).collect();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    #[should_panic(expected = "load fraction")]
    fn zero_load_rejected() {
        let _ = source(0.0);
    }

    #[test]
    #[should_panic(expected = "load fraction")]
    fn non_finite_load_rejected() {
        let _ = source(f64::INFINITY);
    }

    #[test]
    fn extreme_load_clamps_the_gap_to_one_tick() {
        // At 10^6 × peak the exact mean gap is far below a picosecond;
        // the source clamps to the 1-ps tick instead of panicking in
        // `exp_span` (or spinning forever on a zero gap).
        let mut s = source(1e6);
        assert_eq!(s.mean_gap(), Span::from_ps(1));
        s.set_horizon(Time::from_ns(1));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        assert!(!out.is_empty());
        assert!(s.is_exhausted());
    }

    #[test]
    fn single_site_grid_carries_loopback_all_to_all() {
        // A 1x1 grid has no peers; all-to-all degenerates to pure
        // loop-back traffic rather than panicking.
        let mut s = OpenLoopTraffic::new(&Grid::new(1), Pattern::AllToAll, 0.1, 320.0, 64, 1);
        s.set_horizon(Time::from_ns(100));
        let mut out = Vec::new();
        while let Some(t) = s.next_emission() {
            s.emit_due(t, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.src == p.dst));
    }
}
