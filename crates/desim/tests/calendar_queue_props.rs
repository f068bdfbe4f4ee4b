//! Property tests proving [`EventQueue`] (a heap on a packed
//! `(time, seq)` key) equivalent to a reference `BinaryHeap` queue on
//! `Reverse((time, seq, payload))`, pop for pop, under arbitrary push/pop
//! interleavings — including FIFO order among equal timestamps, the
//! extreme timestamps `Time::ZERO` and `Time::MAX`, a deep queue with
//! thousands of events pending, and the `popped()`/`len()` counters.
//!
//! The file keeps its historical name. The strategies below are input
//! shapes: dense timestamps, wide spreads and a clock that sweeps far
//! ahead, each a way a packed key could mis-order.

use desim::{EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The test oracle: the obviously-correct queue `EventQueue` must match.
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

/// Dense: every timestamp falls in a 4 ns window, so order is decided
/// by the low time bits and, for pushes that share a time, by the
/// sequence bits.
fn dense_ops() -> impl Strategy<Value = Vec<Op>> {
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

/// Maximum spread: timestamps across half the `u64` range, so the time
/// bits of the key differ in their highest positions, with pushes before
/// times already popped.
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

/// The scheduling horizon of the far-ahead differential: 262 ns, well
/// past the longest single network delay. Events scheduled one to four
/// horizons past the clock model timeouts and coherence round trips.
const HORIZON_PS: u64 = 262_144;

/// Operations for the far-ahead differential, phrased relative to an
/// advancing simulation clock rather than absolute times.
#[derive(Debug, Clone)]
enum ClockOp {
    /// Schedule within one horizon of the clock.
    PushNear(u64),
    /// Schedule `horizons` (1..=4) horizons past the clock.
    PushFar { horizons: u32, offset: u64 },
    /// Advance the clock without popping (later pop_dues see a jump).
    Advance(u64),
    /// Pop one event due at the current clock.
    PopDue,
    /// Unconditional pop.
    Pop,
}

/// A starting clock anywhere in the first four horizons plus an op mix
/// that keeps far-ahead events pending while the clock sweeps forward.
fn far_ahead_ops() -> impl Strategy<Value = (u64, Vec<ClockOp>)> {
    let op = prop_oneof![
        (0u64..HORIZON_PS).prop_map(ClockOp::PushNear),
        (0u64..HORIZON_PS).prop_map(ClockOp::PushNear),
        (1u32..5, 0u64..HORIZON_PS)
            .prop_map(|(horizons, offset)| ClockOp::PushFar { horizons, offset }),
        (1u64..2 * HORIZON_PS).prop_map(ClockOp::Advance),
        Just(ClockOp::PopDue),
        Just(ClockOp::PopDue),
        Just(ClockOp::Pop),
    ];
    (0u64..4 * HORIZON_PS, proptest::collection::vec(op, 20..200))
}

/// The far-ahead differential: a simulation clock that starts at an
/// arbitrary point and sweeps several horizons, with pushes landing both
/// near the clock and one to four horizons ahead, must pop identically to
/// the reference heap at every step — and must keep doing so across the
/// deterministic tail below, which crosses at least three more horizons
/// with far events still pending.
fn run_far_ahead_differential(start: u64, ops: &[ClockOp]) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut now = start;
    let mut payload = 0u32;
    for (step, op) in ops.iter().enumerate() {
        match op {
            ClockOp::PushNear(d) => {
                let t = Time::from_ps(now + d);
                queue.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
            ClockOp::PushFar { horizons, offset } => {
                let t = Time::from_ps(now + u64::from(*horizons) * HORIZON_PS + offset);
                queue.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
            ClockOp::Advance(d) => now += d,
            ClockOp::PopDue => {
                assert_eq!(
                    queue.pop_due(Time::from_ps(now)),
                    heap.pop_due(Time::from_ps(now)),
                    "pop_due diverged at step {} (now {} ps, horizon {})",
                    step,
                    now,
                    now / HORIZON_PS
                );
            }
            ClockOp::Pop => {
                assert_eq!(queue.pop(), heap.pop(), "pop diverged at step {}", step);
            }
        }
        assert_eq!(queue.len(), heap.len(), "len diverged at step {}", step);
        assert_eq!(queue.peek_time(), heap.peek_time());
    }
    // Deterministic tail: march the clock across four more horizons, each
    // re-seeding one near and one far event, and drain everything due.
    let tail_horizons = 4;
    for _ in 0..tail_horizons {
        let near = Time::from_ps(now + 7);
        let far = Time::from_ps(now + 2 * HORIZON_PS + 13);
        queue.push(near, payload);
        heap.push(near, payload);
        queue.push(far, payload + 1);
        heap.push(far, payload + 1);
        payload += 2;
        now += HORIZON_PS;
        loop {
            let (c, h) = (
                queue.pop_due(Time::from_ps(now)),
                heap.pop_due(Time::from_ps(now)),
            );
            assert_eq!(
                c,
                h,
                "tail pop_due diverged at horizon {}",
                now / HORIZON_PS
            );
            if c.is_none() {
                break;
            }
        }
    }
    assert!(
        now / HORIZON_PS >= start / HORIZON_PS + 3,
        "harness must cross at least three horizons"
    );
    loop {
        let (c, h) = (queue.pop(), heap.pop());
        assert_eq!(c, h, "final drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert_eq!(queue.popped(), heap.popped());
    assert_eq!(queue.last_popped(), heap.last_popped());
}

/// One network clock cycle (5 GHz) in picoseconds.
const CYCLE_PS: u64 = 200;
/// Events pending before the deep differential starts interleaving.
const DEEP_PREFILL: usize = 5_000;

/// Operations for the deep-queue differential, relative to a clock that
/// only moves forward, as in a simulation.
#[derive(Debug, Clone)]
enum SimOp {
    /// Schedule on a cycle boundary `cycles` (0..16) after the clock:
    /// cycle-aligned architectures put many events on one instant.
    PushCycles(u64),
    /// Schedule an arbitrary delay (under 50 ns) past the clock.
    PushAfter(u64),
    /// Pop one event due at the clock.
    PopDue,
    /// Advance the clock by a whole number of cycles (1..4).
    Tick(u64),
}

/// A simulation-shaped schedule: more pushes than pops, so the queue
/// stays thousands deep, with most pushes on a few cycle instants.
fn deep_sim_ops() -> impl Strategy<Value = Vec<SimOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..16).prop_map(SimOp::PushCycles),
            (0u64..16).prop_map(SimOp::PushCycles),
            (0u64..16).prop_map(SimOp::PushCycles),
            (0u64..50_000).prop_map(SimOp::PushAfter),
            Just(SimOp::PopDue),
            Just(SimOp::PopDue),
            Just(SimOp::PopDue),
            (1u64..4).prop_map(SimOp::Tick),
        ],
        8_000..12_000,
    )
}

/// The deep-queue differential: prefill [`DEEP_PREFILL`] cycle-aligned
/// events, so the interleaving starts at least that deep, then run the
/// generated schedule and drain, comparing every pop, `len` and
/// `peek_time` against the reference heap.
fn run_deep_differential(ops: &[SimOp]) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut now = 0u64;
    let mut payload = 0u32;
    let mut push = |queue: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, ps: u64| {
        queue.push(Time::from_ps(ps), payload);
        heap.push(Time::from_ps(ps), payload);
        payload += 1;
    };
    for i in 0..DEEP_PREFILL {
        push(&mut queue, &mut heap, (i as u64 % 16) * CYCLE_PS);
    }
    for (step, op) in ops.iter().enumerate() {
        match op {
            SimOp::PushCycles(c) => push(&mut queue, &mut heap, now + c * CYCLE_PS),
            SimOp::PushAfter(d) => push(&mut queue, &mut heap, now + d),
            SimOp::PopDue => {
                assert_eq!(
                    queue.pop_due(Time::from_ps(now)),
                    heap.pop_due(Time::from_ps(now)),
                    "pop_due diverged at step {step} (now {now} ps)"
                );
            }
            SimOp::Tick(c) => now += c * CYCLE_PS,
        }
        assert_eq!(queue.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(queue.peek_time(), heap.peek_time());
    }
    loop {
        let (c, h) = (queue.pop(), heap.pop());
        assert_eq!(c, h, "deep drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert_eq!(queue.popped(), heap.popped());
    assert_eq!(queue.last_popped(), heap.last_popped());
}

/// The extremes of the time range: pushes at `Time::ZERO` and `Time::MAX`
/// (and their neighbours), popped, peeked and `pop_due`d at both ends.
fn extreme_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Op::Push(0)),
            Just(Op::Push(u64::MAX)),
            Just(Op::Push(1)),
            Just(Op::Push(u64::MAX - 1)),
            Just(Op::Pop),
            Just(Op::PopDue(0)),
            Just(Op::PopDue(u64::MAX - 1)),
            Just(Op::PopDue(u64::MAX)),
            Just(Op::PeekTime),
        ],
        0..200,
    )
}

fn run_differential(ops: &[Op]) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut payload = 0u32;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Push(ps) => {
                queue.push(Time::from_ps(*ps), payload);
                heap.push(Time::from_ps(*ps), payload);
                payload += 1;
            }
            Op::Pop => {
                assert_eq!(queue.pop(), heap.pop(), "pop diverged at step {step}");
            }
            Op::PopDue(now) => {
                assert_eq!(
                    queue.pop_due(Time::from_ps(*now)),
                    heap.pop_due(Time::from_ps(*now)),
                    "pop_due diverged at step {step}"
                );
            }
            Op::PeekTime => {
                assert_eq!(
                    queue.peek_time(),
                    heap.peek_time(),
                    "peek_time diverged at step {step}"
                );
            }
        }
        assert_eq!(queue.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(
            queue.popped(),
            heap.popped(),
            "popped diverged at step {step}"
        );
        assert_eq!(queue.is_empty(), heap.is_empty());
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (c, h) = (queue.pop(), heap.pop());
        assert_eq!(c, h, "drain diverged");
        if c.is_none() {
            break;
        }
    }
    assert_eq!(queue.popped(), heap.popped());
    assert_eq!(queue.last_popped(), heap.last_popped());
}

proptest! {
    #[test]
    fn clustered_interleavings_match_heap(ops in clustered_ops()) {
        run_differential(&ops);
    }

    #[test]
    fn same_bucket_interleavings_match_heap(ops in dense_ops()) {
        run_differential(&ops);
    }

    #[test]
    fn max_spread_interleavings_match_heap(ops in max_spread_ops()) {
        run_differential(&ops);
    }

    /// Far-future schedules: a clock sweeping several horizons, with
    /// pushes near it and one to four horizons ahead, must pop identically
    /// to the reference heap at every step. The body lives in
    /// [`run_far_ahead_differential`]; a failure reprints its inputs.
    #[test]
    fn year_advances_with_overflow_match_heap(case in far_ahead_ops()) {
        let (start, ops) = case;
        run_far_ahead_differential(start, &ops);
    }

    #[test]
    fn extreme_timestamps_match_heap(ops in extreme_ops()) {
        run_differential(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A deep queue on a simulation-shaped schedule: at least
    /// [`DEEP_PREFILL`] events pending, pushes at or after the clock and
    /// most of them on a few cycle-aligned instants.
    #[test]
    fn deep_simulation_schedule_matches_heap(ops in deep_sim_ops()) {
        run_deep_differential(&ops);
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
