//! Property-based tests of the shared network abstractions.

use desim::{Span, Time};
use netcore::{ChannelBank, Grid, MessageKind, Packet, PacketId, QueueArena, SiteId};
use proptest::prelude::*;
use std::collections::VecDeque;

fn packet(id: u64, bytes: u32) -> Packet {
    Packet::new(
        PacketId(id),
        SiteId::from_index(0),
        SiteId::from_index(1),
        bytes,
        MessageKind::Data,
        Time::ZERO,
    )
}

proptest! {
    /// A channel transmits packets in FIFO order with non-overlapping
    /// serialization windows whose lengths match bytes/bandwidth. The
    /// bank's other channel, at another bandwidth, carries the same
    /// packets without disturbing it.
    #[test]
    fn channel_serializes_fifo_without_overlap(
        sizes in proptest::collection::vec(1u32..512, 1..16),
        bw in 1u32..64,
        ch in 0usize..2,
    ) {
        let bw = f64::from(bw);
        let mut bank = ChannelBank::new(2, 1.0, 64);
        bank.set_bytes_per_ns(ch, bw);
        for (i, &s) in sizes.iter().enumerate() {
            for c in 0..2 {
                bank.try_enqueue(c, packet(i as u64, s), s).expect("capacity 64");
            }
        }
        let mut now = Time::ZERO;
        let mut order = 0u64;
        while let Some((p, finish)) = bank.begin_if_ready(ch, now) {
            prop_assert_eq!(p.id, PacketId(order));
            let expect = Span::from_ns_f64(f64::from(p.bytes) / bw);
            prop_assert_eq!(finish - now, expect);
            prop_assert_eq!(bank.busy_until(ch), finish);
            // Starting again before `finish` must fail.
            if finish > now + Span::from_ps(1) {
                let mid = now + Span::from_ps(1);
                prop_assert!(bank.begin_if_ready(ch, mid).is_none());
            }
            now = finish;
            order += 1;
        }
        prop_assert_eq!(order, sizes.len() as u64);
        prop_assert_eq!(bank.queued(1 - ch), sizes.len());
    }

    /// Capacity is enforced exactly, per channel: `cap` packets fit, the
    /// next bounces, and a neighbouring channel still has room.
    #[test]
    fn channel_capacity_exact(cap in 1usize..32, channels in 2usize..8) {
        let mut bank = ChannelBank::new(channels, 1.0, cap);
        let ch = cap % channels;
        for i in 0..cap {
            prop_assert!(bank.try_enqueue(ch, packet(i as u64, 8), 8).is_ok());
        }
        prop_assert!(bank.is_full(ch));
        prop_assert!(bank.try_enqueue(ch, packet(99, 8), 8).is_err());
        let other = (ch + 1) % channels;
        prop_assert!(!bank.is_full(other));
        prop_assert!(bank.try_enqueue(other, packet(100, 8), 8).is_ok());
    }

    /// The pooled arena behaves exactly like one `VecDeque` per queue
    /// under random pushes, pops, head edits and drains over 80 queues,
    /// and its node pool never grows past the peak number of queued
    /// items: every freed node is reused, none leaks.
    #[test]
    fn queue_arena_matches_one_deque_per_queue(
        ops in proptest::collection::vec((0u8..10, 0usize..80, 0u32..1000), 1..600),
    ) {
        const QUEUES: usize = 80;
        let mut arena: QueueArena<u32> = QueueArena::new(QUEUES);
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); QUEUES];
        let (mut live, mut peak) = (0usize, 0usize);
        for (op, q, value) in ops {
            match op {
                0..=4 => {
                    arena.push_back(q, value);
                    model[q].push_back(value);
                    live += 1;
                }
                5 | 6 => {
                    let got = arena.pop_front(q);
                    prop_assert_eq!(got, model[q].pop_front());
                    live -= usize::from(got.is_some());
                }
                7 | 8 => {
                    if let Some(head) = arena.front_mut(q) {
                        *head ^= value;
                    }
                    if let Some(head) = model[q].front_mut() {
                        *head ^= value;
                    }
                }
                _ => {
                    let drained: Vec<u32> = arena.drain(q).collect();
                    let expect: Vec<u32> = model[q].drain(..).collect();
                    live -= drained.len();
                    prop_assert_eq!(drained, expect);
                }
            }
            peak = peak.max(live);
            prop_assert_eq!(arena.len(q), model[q].len());
            prop_assert_eq!(arena.is_empty(q), model[q].is_empty());
            prop_assert_eq!(arena.front(q), model[q].front());
            prop_assert_eq!(arena.pool_len(), peak);
        }
        for (q, expect) in model.iter_mut().enumerate() {
            let drained: Vec<u32> = arena.drain(q).collect();
            prop_assert_eq!(drained, expect.drain(..).collect::<Vec<_>>());
        }
    }

    /// Grid coordinates round-trip and peers are symmetric.
    #[test]
    fn grid_coords_round_trip(side in 2usize..16, a in 0usize..255, b in 0usize..255) {
        let g = Grid::new(side);
        let a = SiteId::from_index(a % g.sites());
        let b = SiteId::from_index(b % g.sites());
        let (x, y) = g.coord(a);
        prop_assert_eq!(g.site(x, y), a);
        prop_assert_eq!(g.are_peers(a, b), g.are_peers(b, a));
        if a != b {
            let same_row_or_col = g.x(a) == g.x(b) || g.y(a) == g.y(b);
            prop_assert_eq!(g.are_peers(a, b), same_row_or_col);
        }
    }

    /// Every site has exactly side-1 row peers and side-1 column peers,
    /// all distinct from itself.
    #[test]
    fn peer_counts(side in 2usize..12, idx in 0usize..143) {
        let g = Grid::new(side);
        let s = SiteId::from_index(idx % g.sites());
        let rows: Vec<_> = g.row_peers(s).collect();
        let cols: Vec<_> = g.col_peers(s).collect();
        prop_assert_eq!(rows.len(), side - 1);
        prop_assert_eq!(cols.len(), side - 1);
        prop_assert!(!rows.contains(&s));
        prop_assert!(!cols.contains(&s));
    }
}
