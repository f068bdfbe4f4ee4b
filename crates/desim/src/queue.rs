//! The deterministic event queue: a **calendar (bucket) queue** tuned to
//! the picosecond tick — power-of-two bucket widths, a fixed power-of-two
//! bucket count, and a lazy overflow list for events beyond the current
//! "year" (bucket span). Events pop in `(time, insertion-sequence)` order,
//! the order a `BinaryHeap` keyed on `Reverse((time, seq))` would give;
//! `tests/calendar_queue_props.rs` checks exactly that against a heap
//! oracle under random push/pop interleavings.

use crate::Time;

/// A future event: timestamp, insertion sequence number, payload.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

/// log2 of the bucket width in picoseconds. Pops pay an O(bucket-length)
/// min scan, so the width is sized for the *densest* simulated workload:
/// a 64-site mesh near saturation produces on the order of 100 events per
/// nanosecond, and 2^5 ps = 32 ps keeps that to a handful of entries per
/// bucket. (The original 4 ns width put hundreds of events in one bucket
/// and made pops quadratic exactly on the networks the bench stresses.)
const WIDTH_LOG2: u32 = 5;
/// Buckets per "year". 8192 buckets × 32 ps ≈ 262 ns of calendar span —
/// past the long single delays (multi-hundred-byte serialization, the
/// ~32 ns token-regeneration penalty), so steady-state pushes land in the
/// year and only genuinely far events (timeouts, coherence round trips)
/// take the overflow path. The occupancy bitmap stays small (128 words)
/// and bucket Vec capacities are retained across years, so the wider
/// calendar costs memory only once.
const NUM_BUCKETS: usize = 8192;
const WIDTH: u64 = 1 << WIDTH_LOG2;
const YEAR: u64 = (NUM_BUCKETS as u64) << WIDTH_LOG2;
const OCC_WORDS: usize = NUM_BUCKETS / 64;

/// Location of the calendar's current minimum entry, memoized so a
/// peek→pop pair costs one scan.
#[derive(Clone, Copy)]
struct MinLoc {
    time: Time,
    seq: u64,
    bucket: usize,
    idx: usize,
}

struct Calendar<E> {
    /// One Vec per bucket, recycled across years (capacity is retained).
    buckets: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over buckets: bit set ⇔ bucket non-empty.
    occupancy: [u64; OCC_WORDS],
    /// Start of the current year (picoseconds, aligned to the width).
    base: u64,
    /// First bucket index that may hold the minimum.
    cursor: usize,
    /// Entries currently in buckets (excludes the overflow list).
    in_buckets: usize,
    /// Events beyond `base + YEAR`, unsorted; redistributed lazily when
    /// the calendar advances into their year.
    overflow: Vec<Entry<E>>,
    /// Minimum timestamp in `overflow` (ps); `u64::MAX` when empty.
    overflow_min: u64,
    cached_min: Option<MinLoc>,
}

impl<E> Calendar<E> {
    fn new() -> Calendar<E> {
        Calendar {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupancy: [0; OCC_WORDS],
            base: 0,
            cursor: 0,
            in_buckets: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cached_min: None,
        }
    }

    fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    #[inline]
    fn bucket_of(&self, ps: u64) -> usize {
        ((ps - self.base) >> WIDTH_LOG2) as usize
    }

    #[inline]
    fn mark(&mut self, b: usize) {
        self.occupancy[b >> 6] |= 1u64 << (b & 63);
    }

    #[inline]
    fn unmark(&mut self, b: usize) {
        self.occupancy[b >> 6] &= !(1u64 << (b & 63));
    }

    /// First non-empty bucket at or after `from`, via the bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NUM_BUCKETS {
            return None;
        }
        let mut w = from >> 6;
        let mut word = self.occupancy[w] & (u64::MAX << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            word = self.occupancy[w];
        }
    }

    fn push(&mut self, time: Time, seq: u64, event: E) {
        let ps = time.as_ps();
        if ps < self.base {
            // A push before the calendar's origin (arbitrary interleavings
            // are legal, even if the simulations never rewind): rebuild
            // around the new earliest time. Rare and O(n).
            self.rebuild(ps);
        }
        // `ps - base` avoids overflow when the year sits near `Time::MAX`.
        if ps - self.base >= YEAR {
            self.overflow_min = self.overflow_min.min(ps);
            self.overflow.push(Entry { time, seq, event });
            return;
        }
        let b = self.bucket_of(ps);
        let idx = self.buckets[b].len();
        self.buckets[b].push(Entry { time, seq, event });
        self.mark(b);
        self.in_buckets += 1;
        if b < self.cursor {
            self.cursor = b;
        }
        // Appends never move existing entries, so a memoized location stays
        // valid; it only changes if the new entry beats it. A `None` memo
        // means "unknown" and is recomputed on demand.
        if let Some(m) = self.cached_min {
            if (time, seq) < (m.time, m.seq) {
                self.cached_min = Some(MinLoc {
                    time,
                    seq,
                    bucket: b,
                    idx,
                });
            }
        }
    }

    /// Re-anchors the calendar at `ps` and redistributes every entry.
    fn rebuild(&mut self, ps: u64) {
        let mut all: Vec<Entry<E>> = std::mem::take(&mut self.overflow);
        for b in &mut self.buckets {
            all.append(b);
        }
        self.occupancy = [0; OCC_WORDS];
        self.in_buckets = 0;
        self.overflow_min = u64::MAX;
        self.cached_min = None;
        self.base = ps & !(WIDTH - 1);
        self.cursor = 0;
        for e in all {
            let eps = e.time.as_ps();
            if eps - self.base >= YEAR {
                self.overflow_min = self.overflow_min.min(eps);
                self.overflow.push(e);
            } else {
                let b = self.bucket_of(eps);
                self.buckets[b].push(e);
                self.mark(b);
                self.in_buckets += 1;
            }
        }
    }

    /// All buckets are empty: jump the year to the overflow's minimum and
    /// redistribute the entries that fall inside it.
    fn advance_year(&mut self) {
        debug_assert!(self.in_buckets == 0 && !self.overflow.is_empty());
        self.base = self.overflow_min & !(WIDTH - 1);
        self.cursor = 0;
        self.overflow_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let eps = self.overflow[i].time.as_ps();
            if eps - self.base < YEAR {
                let e = self.overflow.swap_remove(i);
                let b = self.bucket_of(eps);
                self.buckets[b].push(e);
                self.mark(b);
                self.in_buckets += 1;
            } else {
                self.overflow_min = self.overflow_min.min(eps);
                i += 1;
            }
        }
    }

    /// Locates the minimum bucket entry, memoizing it. Caller guarantees
    /// `in_buckets > 0` or a non-empty overflow.
    fn ensure_min(&mut self) -> MinLoc {
        if let Some(m) = self.cached_min {
            return m;
        }
        if self.in_buckets == 0 {
            self.advance_year();
        }
        let b = self
            .next_occupied(self.cursor)
            .expect("occupancy tracks non-empty buckets");
        self.cursor = b;
        let bucket = &self.buckets[b];
        let mut best = 0;
        for (i, e) in bucket.iter().enumerate().skip(1) {
            if (e.time, e.seq) < (bucket[best].time, bucket[best].seq) {
                best = i;
            }
        }
        let m = MinLoc {
            time: bucket[best].time,
            seq: bucket[best].seq,
            bucket: b,
            idx: best,
        };
        self.cached_min = Some(m);
        m
    }

    fn peek_time(&self) -> Option<Time> {
        if let Some(m) = self.cached_min {
            return Some(m.time);
        }
        if self.in_buckets > 0 {
            let b = self.next_occupied(self.cursor)?;
            let t = self.buckets[b]
                .iter()
                .map(|e| e.time)
                .min()
                .expect("occupied bucket");
            return Some(t);
        }
        if !self.overflow.is_empty() {
            return Some(Time::from_ps(self.overflow_min));
        }
        None
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        if self.len() == 0 {
            return None;
        }
        let m = self.ensure_min();
        self.cached_min = None;
        let bucket = &mut self.buckets[m.bucket];
        let entry = bucket.swap_remove(m.idx);
        if bucket.is_empty() {
            self.unmark(m.bucket);
        }
        self.in_buckets -= 1;
        Some((entry.time, entry.event))
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupancy = [0; OCC_WORDS];
        self.in_buckets = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cached_min = None;
        self.cursor = 0;
    }
}

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
    calendar: Box<Calendar<E>>,
    next_seq: u64,
    popped: u64,
    last_popped: Option<Time>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            calendar: Box::new(Calendar::new()),
            next_seq: 0,
            popped: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(time, seq, event);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let _span = crate::prof::span(crate::prof::Site::QueuePop);
        let popped = self.calendar.pop();
        if let Some((t, _)) = &popped {
            self.popped += 1;
            self.last_popped = Some(*t);
        }
        popped
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.calendar.peek_time()
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        // Locate-and-memoize the minimum once so the peek and the (likely)
        // pop share a single scan.
        if self.calendar.len() == 0 || self.calendar.ensure_min().time > now {
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
        self.calendar.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.calendar.clear();
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
        // A cleared calendar keeps working.
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
        // Events far beyond one calendar year land in the overflow list
        // and redistribute on demand, interleaved with near events.
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
