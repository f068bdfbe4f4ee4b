//! Property tests proving the calendar [`EventQueue`] equivalent to a
//! reference `BinaryHeap` queue, pop for pop, under arbitrary push/pop
//! interleavings — including FIFO order among equal timestamps and the
//! `popped()`/`len()` counters.

use desim::{EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The test oracle: the obviously-correct queue the calendar must match.
/// A min-heap on `(time, insertion sequence, payload)`; the sequence
/// number is unique, so the payload never decides the order and equal
/// timestamps pop FIFO.
struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<(Time, u64, E)>>,
    next_seq: u64,
    popped: u64,
    last_popped: Option<Time>,
}

impl<E: Ord> HeapQueue<E> {
    fn new() -> HeapQueue<E> {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            last_popped: None,
        }
    }

    fn push(&mut self, time: Time, event: E) {
        self.heap.push(Reverse((time, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.popped += 1;
        self.last_popped = Some(time);
        Some((time, event))
    }

    fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn popped(&self) -> u64 {
        self.popped
    }

    fn last_popped(&self) -> Option<Time> {
        self.last_popped
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    PopDue(u64),
    PeekTime,
}

/// Clustered timestamps: the shape real simulations produce — small
/// positive deltas around a slowly advancing clock.
fn clustered_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..200_000).prop_map(Op::Push),
            (0u64..200_000).prop_map(Op::Push),
            (0u64..200_000).prop_map(Op::Push),
            (0u64..200_000).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u64..200_000).prop_map(Op::PopDue),
            Just(Op::PeekTime),
        ],
        0..400,
    )
}

/// Pathological: every timestamp lands in the same calendar bucket, so
/// ordering is decided purely by the in-bucket (time, seq) scan.
fn same_bucket_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..4_096).prop_map(Op::Push),
            (0u64..4_096).prop_map(Op::Push),
            (0u64..4_096).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        0..400,
    )
}

/// Pathological: maximum spread — timestamps across many calendar years,
/// exercising the overflow list, year advance, and past-time rebuilds.
fn max_spread_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..u64::MAX / 2).prop_map(Op::Push),
            (0u64..u64::MAX / 2).prop_map(Op::Push),
            (0u64..u64::MAX / 2).prop_map(Op::Push),
            (0u64..u64::MAX / 2).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u64..u64::MAX / 2).prop_map(Op::PopDue),
        ],
        0..400,
    )
}

/// One calendar "year" in picoseconds: the queue's 8192 buckets × 32 ps
/// width. Events scheduled past `base + YEAR` sit in the overflow list
/// until the calendar advances into their year.
const YEAR_PS: u64 = 8192 << 5;

/// Operations for the year-advance differential, phrased relative to an
/// advancing simulation clock rather than absolute times.
#[derive(Debug, Clone)]
enum YearOp {
    /// Schedule within the current year of the clock.
    PushNear(u64),
    /// Schedule `years` (1..=4) calendar years past the clock — lands in
    /// the overflow list until the calendar advances that far.
    PushFar { years: u32, offset: u64 },
    /// Advance the clock without popping (later pop_dues see a jump).
    Advance(u64),
    /// Pop one event due at the current clock.
    PopDue,
    /// Unconditional pop.
    Pop,
}

/// A starting clock anywhere in the first four years plus an op mix that
/// keeps the overflow list busy while the clock sweeps forward.
fn year_boundary_ops() -> impl Strategy<Value = (u64, Vec<YearOp>)> {
    let op = prop_oneof![
        (0u64..YEAR_PS).prop_map(YearOp::PushNear),
        (0u64..YEAR_PS).prop_map(YearOp::PushNear),
        (1u32..5, 0u64..YEAR_PS).prop_map(|(years, offset)| YearOp::PushFar { years, offset }),
        (1u64..2 * YEAR_PS).prop_map(YearOp::Advance),
        Just(YearOp::PopDue),
        Just(YearOp::PopDue),
        Just(YearOp::Pop),
    ];
    (0u64..4 * YEAR_PS, proptest::collection::vec(op, 20..200))
}

/// The year-advance regression (far-future schedules): a simulation
/// clock that starts at an arbitrary point and crosses several
/// calendar years, with pushes landing both inside the current year
/// and one-to-four years ahead (the overflow list), must pop
/// identically to the reference heap at every step — and must keep
/// doing so across the deterministic tail below, which forces at
/// least three more year boundaries with overflow still populated.
fn run_year_differential(start: u64, ops: &[YearOp]) {
    let mut calendar: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut now = start;
    let mut payload = 0u32;
    for (step, op) in ops.iter().enumerate() {
        match op {
            YearOp::PushNear(d) => {
                let t = Time::from_ps(now + d);
                calendar.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
            YearOp::PushFar { years, offset } => {
                let t = Time::from_ps(now + u64::from(*years) * YEAR_PS + offset);
                calendar.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
            YearOp::Advance(d) => now += d,
            YearOp::PopDue => {
                assert_eq!(
                    calendar.pop_due(Time::from_ps(now)),
                    heap.pop_due(Time::from_ps(now)),
                    "pop_due diverged at step {} (now {} ps, year {})",
                    step,
                    now,
                    now / YEAR_PS
                );
            }
            YearOp::Pop => {
                assert_eq!(calendar.pop(), heap.pop(), "pop diverged at step {}", step);
            }
        }
        assert_eq!(calendar.len(), heap.len(), "len diverged at step {}", step);
        assert_eq!(calendar.peek_time(), heap.peek_time());
    }
    // Deterministic tail: march the clock across four more year
    // boundaries, each year re-seeding one near and one far event, and
    // drain everything due — the lazy overflow redistribution runs at
    // least three times no matter what the generator produced.
    let tail_years = 4;
    for _ in 0..tail_years {
        let near = Time::from_ps(now + 7);
        let far = Time::from_ps(now + 2 * YEAR_PS + 13);
        calendar.push(near, payload);
        heap.push(near, payload);
        calendar.push(far, payload + 1);
        heap.push(far, payload + 1);
        payload += 2;
        now += YEAR_PS;
        loop {
            let (c, h) = (
                calendar.pop_due(Time::from_ps(now)),
                heap.pop_due(Time::from_ps(now)),
            );
            assert_eq!(c, h, "tail pop_due diverged at year {}", now / YEAR_PS);
            if c.is_none() {
                break;
            }
        }
    }
    assert!(
        now / YEAR_PS >= start / YEAR_PS + 3,
        "harness must cross at least three year boundaries"
    );
    loop {
        let (c, h) = (calendar.pop(), heap.pop());
        assert_eq!(c, h, "final drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert_eq!(calendar.popped(), heap.popped());
    assert_eq!(calendar.last_popped(), heap.last_popped());
}

fn run_differential(ops: &[Op]) {
    let mut calendar: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut payload = 0u32;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Push(ps) => {
                calendar.push(Time::from_ps(*ps), payload);
                heap.push(Time::from_ps(*ps), payload);
                payload += 1;
            }
            Op::Pop => {
                assert_eq!(calendar.pop(), heap.pop(), "pop diverged at step {step}");
            }
            Op::PopDue(now) => {
                assert_eq!(
                    calendar.pop_due(Time::from_ps(*now)),
                    heap.pop_due(Time::from_ps(*now)),
                    "pop_due diverged at step {step}"
                );
            }
            Op::PeekTime => {
                assert_eq!(
                    calendar.peek_time(),
                    heap.peek_time(),
                    "peek_time diverged at step {step}"
                );
            }
        }
        assert_eq!(calendar.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(
            calendar.popped(),
            heap.popped(),
            "popped diverged at step {step}"
        );
        assert_eq!(calendar.is_empty(), heap.is_empty());
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (c, h) = (calendar.pop(), heap.pop());
        assert_eq!(c, h, "drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert_eq!(calendar.popped(), heap.popped());
    assert_eq!(calendar.last_popped(), heap.last_popped());
}

proptest! {
    #[test]
    fn clustered_interleavings_match_heap(ops in clustered_ops()) {
        run_differential(&ops);
    }

    #[test]
    fn same_bucket_interleavings_match_heap(ops in same_bucket_ops()) {
        run_differential(&ops);
    }

    #[test]
    fn max_spread_interleavings_match_heap(ops in max_spread_ops()) {
        run_differential(&ops);
    }

    /// The year-advance regression (far-future schedules): a simulation
    /// clock that starts at an arbitrary point and crosses several
    /// calendar years, with pushes landing both inside the current year
    /// and one-to-four years ahead (the overflow list), must pop
    /// identically to the reference heap at every step. The body lives in
    /// [`run_year_differential`]; a shrunk failure reprints its inputs.
    #[test]
    fn year_advances_with_overflow_match_heap(case in year_boundary_ops()) {
        let (start, ops) = case;
        run_year_differential(start, &ops);
    }
}

proptest! {
    /// Equal-timestamp pushes must drain in insertion order regardless of
    /// how many distinct timestamps interleave between them.
    #[test]
    fn fifo_among_equal_times(times in proptest::collection::vec(0u64..64, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        // Map each op into one of 64 shared timestamps so collisions are dense.
        for (i, t) in times.iter().enumerate() {
            q.push(Time::from_ps(*t * 4_096), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li),
                    "FIFO violated: ({lt:?},{li}) then ({t:?},{i})");
            }
            last = Some((t, i));
        }
    }
}
