//! Serializing optical transmit channels with bounded queues, held as one
//! bank per network.

use crate::arena::{NodePool, QueueRec};
use desim::{Span, Time};
use std::cell::Cell;

/// One channel's state: its serializer and its FIFO's record in the
/// bank's shared node pool.
#[derive(Debug, Clone)]
struct ChannelRec {
    busy_until: Time,
    bytes_per_ns: f64,
    /// Serialization memo for the last byte count seen. Traffic is
    /// dominated by one or two fixed packet sizes, so this single entry
    /// turns the per-transmission `bytes / bandwidth` division into a
    /// compare; it caches the same value the division would produce and
    /// is reset whenever the bandwidth changes.
    ser_memo: Cell<(u32, Span)>,
    queue: QueueRec,
}

impl ChannelRec {
    fn new(bytes_per_ns: f64) -> ChannelRec {
        ChannelRec {
            busy_until: Time::ZERO,
            bytes_per_ns,
            ser_memo: Cell::new((64, Span::from_ns_f64(64.0 / bytes_per_ns))),
            queue: QueueRec::EMPTY,
        }
    }
}

/// Asserts a channel bandwidth is usable.
fn check_bandwidth(bytes_per_ns: f64) {
    assert!(
        bytes_per_ns > 0.0 && bytes_per_ns.is_finite(),
        "invalid channel bandwidth"
    );
}

/// A bank of transmit channels: fixed-bandwidth serializers, each fed by a
/// bounded FIFO, all of one network.
///
/// A channel transmits one item at a time; serialization takes
/// `bytes / bandwidth`. Networks call [`try_enqueue`](Self::try_enqueue)
/// at injection and [`begin_if_ready`](Self::begin_if_ready) whenever a
/// channel might be able to start its next item (on injection and when a
/// previous transmission finishes). Channels are addressed by index
/// `0..channels`; all share one queue capacity, while bandwidth is per
/// channel, since faults degrade single channels.
///
/// The payload type `T` is what the queues carry — a slab
/// [`PacketRef`](crate::PacketRef) or a bare circuit or packet id — while
/// the byte count that determines serialization time travels alongside it
/// explicitly. Every FIFO threads through one pooled node vector (see
/// [`QueueArena`](crate::QueueArena)), so building a bank of thousands of
/// channels makes a constant number of allocations.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::ChannelBank;
///
/// // Two one-wavelength channels, queues of 4.
/// let mut bank: ChannelBank<u64> = ChannelBank::new(2, 2.5, 4);
/// bank.try_enqueue(1, 7, 64).unwrap();
/// let (sent, finish) = bank.begin_if_ready(1, Time::ZERO).unwrap();
/// assert_eq!(sent, 7);
/// assert_eq!(finish, Time::from_ps(25_600)); // 64 B at 2.5 B/ns
/// assert!(bank.begin_if_ready(0, Time::ZERO).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ChannelBank<T> {
    channels: Vec<ChannelRec>,
    pool: NodePool<(T, u32)>,
    capacity: usize,
}

impl<T: Copy> ChannelBank<T> {
    /// Creates `channels` idle channels of `bytes_per_ns` bandwidth, each
    /// with a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive and finite, or
    /// the capacity is zero.
    pub fn new(channels: usize, bytes_per_ns: f64, capacity: usize) -> ChannelBank<T> {
        check_bandwidth(bytes_per_ns);
        assert!(capacity > 0, "channel capacity must be positive");
        ChannelBank {
            channels: vec![ChannelRec::new(bytes_per_ns); channels],
            pool: NodePool::new(),
            capacity,
        }
    }

    /// Queues an item of `bytes` payload on channel `ch`.
    ///
    /// # Errors
    ///
    /// Returns the item back when the FIFO is full (injection
    /// backpressure).
    pub fn try_enqueue(&mut self, ch: usize, item: T, bytes: u32) -> Result<(), T> {
        let rec = &mut self.channels[ch];
        if rec.queue.len() >= self.capacity {
            Err(item)
        } else {
            self.pool.push_back(&mut rec.queue, (item, bytes));
            Ok(())
        }
    }

    /// If channel `ch` is idle at `now` and has queued work, dequeues the
    /// head item, marks the channel busy for its serialization time, and
    /// returns the item together with the time its last bit leaves the
    /// transmitter.
    pub fn begin_if_ready(&mut self, ch: usize, now: Time) -> Option<(T, Time)> {
        let rec = &mut self.channels[ch];
        if rec.busy_until > now {
            return None;
        }
        let (item, bytes) = self.pool.pop_front(&mut rec.queue)?;
        let finish = now + self.serialization(ch, bytes);
        self.channels[ch].busy_until = finish;
        Some((item, finish))
    }

    /// Serialization delay for `bytes` at channel `ch`'s bandwidth.
    pub fn serialization(&self, ch: usize, bytes: u32) -> Span {
        let rec = &self.channels[ch];
        let (memo_bytes, memo_span) = rec.ser_memo.get();
        if memo_bytes == bytes {
            return memo_span;
        }
        let span = Span::from_ns_f64(bytes as f64 / rec.bytes_per_ns);
        rec.ser_memo.set((bytes, span));
        span
    }

    /// The instant channel `ch`'s in-flight transmission (if any)
    /// completes.
    pub fn busy_until(&self, ch: usize) -> Time {
        self.channels[ch].busy_until
    }

    /// Items waiting on channel `ch` (not counting one in flight).
    pub fn queued(&self, ch: usize) -> usize {
        self.channels[ch].queue.len()
    }

    /// True when nothing is queued on channel `ch`.
    pub fn is_empty(&self, ch: usize) -> bool {
        self.queued(ch) == 0
    }

    /// True when channel `ch`'s FIFO cannot accept another item.
    pub fn is_full(&self, ch: usize) -> bool {
        self.queued(ch) >= self.capacity
    }

    /// Changes channel `ch`'s bandwidth (wavelength loss or restoration).
    ///
    /// In-flight transmissions keep their already-computed finish time;
    /// only subsequent serializations see the new rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive and finite.
    pub fn set_bytes_per_ns(&mut self, ch: usize, bytes_per_ns: f64) {
        check_bandwidth(bytes_per_ns);
        let rec = &mut self.channels[ch];
        rec.bytes_per_ns = bytes_per_ns;
        rec.ser_memo
            .set((64, Span::from_ns_f64(64.0 / bytes_per_ns)));
    }

    /// Removes and returns every item queued on channel `ch`, head first
    /// (fault eviction).
    pub fn drain_queue(&mut self, ch: usize) -> Vec<T> {
        let queue = &mut self.channels[ch].queue;
        std::iter::from_fn(|| self.pool.pop_front(queue))
            .map(|(item, _)| item)
            .collect()
    }

    /// Peek at channel `ch`'s head item without dequeuing it.
    pub fn peek(&self, ch: usize) -> Option<&T> {
        self.pool
            .front(&self.channels[ch].queue)
            .map(|(item, _)| item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MessageKind, Packet, PacketId, SiteId};

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

    #[test]
    fn serializes_at_configured_bandwidth() {
        let mut bank: ChannelBank<Packet> = ChannelBank::new(1, 5.0, 4); // p2p channel: 5 B/ns
        let p = packet(0, 64);
        bank.try_enqueue(0, p, p.bytes).unwrap();
        let (_, finish) = bank.begin_if_ready(0, Time::ZERO).unwrap();
        // 64 B / 5 B/ns = 12.8 ns.
        assert_eq!(finish, Time::from_ps(12_800));
    }

    #[test]
    fn one_packet_at_a_time() {
        let mut bank: ChannelBank<Packet> = ChannelBank::new(1, 5.0, 4);
        bank.try_enqueue(0, packet(0, 64), 64).unwrap();
        bank.try_enqueue(0, packet(1, 64), 64).unwrap();
        let (first, f1) = bank.begin_if_ready(0, Time::ZERO).unwrap();
        assert_eq!(first.id, PacketId(0));
        // Channel is busy; the second cannot start early.
        assert!(bank.begin_if_ready(0, Time::ZERO).is_none());
        assert!(bank.begin_if_ready(0, f1 - Span::from_ps(1)).is_none());
        let (second, f2) = bank.begin_if_ready(0, f1).unwrap();
        assert_eq!(second.id, PacketId(1));
        assert_eq!(f2, f1 + Span::from_ps(12_800));
    }

    #[test]
    fn backpressure_when_full() {
        let mut bank: ChannelBank<Packet> = ChannelBank::new(2, 5.0, 2);
        bank.try_enqueue(1, packet(0, 64), 64).unwrap();
        bank.try_enqueue(1, packet(1, 64), 64).unwrap();
        assert!(bank.is_full(1));
        let rejected = bank.try_enqueue(1, packet(2, 64), 64).unwrap_err();
        assert_eq!(rejected.id, PacketId(2));
        // The capacity is per channel: its neighbour still accepts.
        assert!(!bank.is_full(0));
        assert!(bank.try_enqueue(0, packet(3, 64), 64).is_ok());
    }

    #[test]
    fn idle_channel_with_empty_queue_does_nothing() {
        let mut bank: ChannelBank<Packet> = ChannelBank::new(1, 5.0, 2);
        assert!(bank.begin_if_ready(0, Time::from_ns(10)).is_none());
        assert!(bank.is_empty(0));
    }

    #[test]
    fn control_packets_are_fast() {
        let bank: ChannelBank<Packet> = ChannelBank::new(1, 40.0, 2); // two-phase channel
        assert_eq!(bank.serialization(0, 8), Span::from_ps(200));
        assert_eq!(bank.serialization(0, 64), Span::from_ps(1_600));
    }

    #[test]
    fn carries_non_packet_payloads() {
        // Circuit setup markers ride the control mesh as bare ids.
        let mut bank: ChannelBank<u64> = ChannelBank::new(1, 2.5, 4);
        bank.try_enqueue(0, 7, 8).unwrap();
        let (id, finish) = bank.begin_if_ready(0, Time::ZERO).unwrap();
        assert_eq!(id, 7);
        assert_eq!(finish, Time::from_ps(3_200)); // 8 B at 2.5 B/ns
    }

    #[test]
    #[should_panic(expected = "invalid channel bandwidth")]
    fn zero_bandwidth_rejected() {
        let _: ChannelBank<Packet> = ChannelBank::new(1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid channel bandwidth")]
    fn set_bandwidth_rejects_infinity() {
        let mut bank: ChannelBank<u64> = ChannelBank::new(1, 2.5, 1);
        bank.set_bytes_per_ns(0, f64::INFINITY);
    }

    #[test]
    fn bandwidth_is_per_channel() {
        let mut bank: ChannelBank<u64> = ChannelBank::new(2, 5.0, 4);
        bank.set_bytes_per_ns(1, 2.5);
        assert_eq!(bank.serialization(0, 64), Span::from_ps(12_800));
        assert_eq!(bank.serialization(1, 64), Span::from_ps(25_600));
    }

    #[test]
    fn drain_queue_returns_items_in_order_and_peek_sees_the_head() {
        let mut bank: ChannelBank<u64> = ChannelBank::new(3, 5.0, 8);
        for id in 0..4 {
            bank.try_enqueue(2, id, 64).unwrap();
        }
        assert_eq!(bank.peek(2), Some(&0));
        assert_eq!(bank.drain_queue(2), vec![0, 1, 2, 3]);
        assert!(bank.is_empty(2));
        assert_eq!(bank.peek(2), None);
    }
}
