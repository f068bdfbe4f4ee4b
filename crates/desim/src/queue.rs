//! The deterministic event queue: a binary min-heap (`std`'s
//! `BinaryHeap`) on a packed `(time, insertion-sequence)` key. Events pop
//! in `(time, seq)` order; since every `seq` is unique, that order is
//! total and any correct priority queue produces it.
//! `tests/calendar_queue_props.rs` checks it against a reference heap on
//! `Reverse((time, seq, payload))` under random push/pop interleavings.

use crate::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A future event. `key` packs the timestamp (picoseconds) into the high
/// 64 bits and the insertion sequence number into the low 64, so one
/// `u128` comparison orders by time and then FIFO among equal times.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> Time {
        // The high 64 bits are exactly the timestamp the key was packed from.
        #[allow(clippy::cast_possible_truncation)]
        Time::from_ps((self.key >> 64) as u64)
    }
}

// `BinaryHeap` is a max-heap: compare keys reversed so the smallest
// `(time, seq)` sits on top. The payload never takes part.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

/// Events each queue reserves room for when it is created. The buffer's
/// pages are touched only as the queue fills, so the reservation costs
/// address space, not resident memory. It is there for the allocator:
/// on perfbench, queues that grew from empty made `coherent_campaign`
/// (two worker threads) up to 40 % slower, and made `board2x2_open` set-up
/// about 20 % slower through page faults, as glibc returned the top of
/// its smaller arena to the system between boards.
const INITIAL_CAPACITY: usize = 8192;

/// A time-ordered priority queue of simulation events.
///
/// Events with equal timestamps pop in insertion (FIFO) order, which makes
/// every simulation built on this queue deterministic for a given seed:
/// pops come out in `(time, insertion-sequence)` order.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(2), 'b');
/// q.push(Time::from_ns(1), 'a');
/// q.push(Time::from_ns(2), 'c');
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
/// // Equal timestamps pop in insertion order.
/// assert_eq!(q.pop(), Some((Time::from_ns(2), 'b')));
/// assert_eq!(q.pop(), Some((Time::from_ns(2), 'c')));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    last_popped: Option<Time>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(INITIAL_CAPACITY),
            next_seq: 0,
            popped: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (u128::from(time.as_ps()) << 64) | u128::from(seq);
        self.heap.push(Entry { key, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let _span = crate::prof::span(crate::prof::Site::QueuePop);
        let entry = self.heap.pop()?;
        let time = entry.time();
        self.popped += 1;
        self.last_popped = Some(time);
        Some((time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(Entry::time)
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if self.peek_time()? > now {
            return None;
        }
        self.pop()
    }

    /// Events popped over the queue's lifetime — the deterministic
    /// "simulation events processed" figure host-side throughput is
    /// measured against (events per wall-clock second). Monotone; not
    /// reset by [`EventQueue::clear`].
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the most recently popped event, if any. This is the
    /// "simulation clock" a batched driver reads back after advancing a
    /// network through multiple events in one call.
    pub fn last_popped(&self) -> Option<Time> {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3] {
            q.push(Time::from_ns(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "later");
        q.push(Time::from_ns(2), "soon");
        assert_eq!(
            q.pop_due(Time::from_ns(5)),
            Some((Time::from_ns(2), "soon"))
        );
        assert_eq!(q.pop_due(Time::from_ns(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(4), ());
        q.push(Time::from_ns(2), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 'z');
        q.clear();
        assert!(q.is_empty());
        // A cleared queue keeps working.
        q.push(Time::from_us(3), 'x');
        q.push(Time::from_ns(1), 'y');
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'y')));
        assert_eq!(q.pop(), Some((Time::from_us(3), 'x')));
    }

    #[test]
    fn popped_counts_successful_pops_only() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        q.push(Time::from_ns(1), ());
        q.push(Time::from_ns(2), ());
        q.pop();
        assert_eq!(q.popped(), 1);
        assert_eq!(q.pop_due(Time::ZERO), None, "not due yet");
        assert_eq!(q.popped(), 1, "a refused pop_due must not count");
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2, "popping empty must not count");
        q.push(Time::ZERO, ());
        q.clear();
        assert_eq!(q.popped(), 2, "clear discards without counting");
    }

    #[test]
    fn last_popped_tracks_the_latest_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.last_popped(), None);
        q.push(Time::from_ns(3), ());
        q.push(Time::from_ns(8), ());
        q.pop();
        assert_eq!(q.last_popped(), Some(Time::from_ns(3)));
        q.pop();
        assert_eq!(q.last_popped(), Some(Time::from_ns(8)));
        q.pop();
        assert_eq!(
            q.last_popped(),
            Some(Time::from_ns(8)),
            "empty pop keeps it"
        );
    }

    #[test]
    fn calendar_crosses_years_and_overflow() {
        // Widely spread timestamps (picoseconds to microseconds apart)
        // interleave correctly with near ones.
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![3, 1_500, 1_048_576, 5_000_000, 1_048_577, 40];
        for &t in &times {
            q.push(Time::from_ps(t), t);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, sorted);
    }

    #[test]
    fn calendar_handles_past_pushes() {
        // Pushing earlier than everything already popped-around must
        // still pop in global order (the queue contract allows it).
        let mut q = EventQueue::new();
        q.push(Time::from_us(10), "far");
        assert_eq!(q.peek_time(), Some(Time::from_us(10)));
        q.push(Time::from_ns(1), "near");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "near")));
        q.push(Time::from_ps(1), "nearer");
        assert_eq!(q.pop(), Some((Time::from_ps(1), "nearer")));
        assert_eq!(q.pop(), Some((Time::from_us(10), "far")));
    }
}
