//! Differential test for the open-loop source's emission path.
//!
//! [`OpenLoopTraffic::emit_due`] emits a lone due site and re-keys it in
//! place, and only falls back to collecting and sorting the due set when
//! two or more sites are due at once. Both paths must reproduce, packet
//! for packet, the generator as first written, which lives on below as an
//! oracle: it pops every due site off a `std` heap, visits them in site
//! order and pushes each one back. The emission stream (id, source,
//! destination, size, creation instant) and the next-emission probe are
//! compared after every call, across seeds, patterns, loads from 0.2 % to
//! full peak on a 16x16 grid, with and without a horizon, and with the
//! source driven at each emission instant or on a coarse clock.

use desim::{SimRng, Span, Time};
use netcore::{Grid, MessageKind, Packet, PacketId, PacketSource, SiteId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workloads::{DestinationGen, OpenLoopTraffic, Pattern};

const SITE_PEAK: f64 = 320.0;
const BYTES: u32 = 64;

// ---- Oracle: the pop-all, sort-by-site, push-back generator ----

struct Oracle {
    grid: Grid,
    dest: DestinationGen,
    rng: SimRng,
    pending: BinaryHeap<Reverse<(Time, usize)>>,
    mean_gap: Span,
    next_id: u64,
    horizon: Time,
    /// Size of every non-empty due set seen by `emit_due`.
    due_sizes: Vec<usize>,
}

impl Oracle {
    fn new(grid: &Grid, pattern: Pattern, load: f64, seed: u64) -> Oracle {
        let rate = load * SITE_PEAK;
        let mean_gap = Span::from_ns_f64(f64::from(BYTES) / rate).max(Span::from_ps(1));
        let mut rng = SimRng::new(seed);
        let next_at: Vec<Time> = (0..grid.sites())
            .map(|_| Time::ZERO + rng.exp_span(mean_gap))
            .collect();
        Oracle {
            grid: *grid,
            dest: DestinationGen::new(pattern, grid),
            rng,
            pending: next_at
                .iter()
                .enumerate()
                .map(|(site, &t)| Reverse((t, site)))
                .collect(),
            mean_gap,
            next_id: 0,
            horizon: Time::MAX,
            due_sizes: Vec::new(),
        }
    }

    fn set_horizon(&mut self, deadline: Time) {
        self.horizon = deadline;
        self.pending.retain(|&Reverse((t, _))| t < deadline);
    }

    fn next_emission(&self) -> Option<Time> {
        self.pending.peek().map(|&Reverse((t, _))| t)
    }

    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        let mut due = Vec::new();
        while let Some(&Reverse((t, site))) = self.pending.peek() {
            if t > now {
                break;
            }
            self.pending.pop();
            due.push((t, site));
        }
        if due.is_empty() {
            return;
        }
        self.due_sizes.push(due.len());
        due.sort_unstable_by_key(|&(_, site)| site);
        for (mut at, site) in due {
            loop {
                let src = SiteId::from_index(site);
                let dst = self.dest.next(src, &self.grid, &mut self.rng);
                out.push(Packet::new(
                    PacketId(self.next_id),
                    src,
                    dst,
                    BYTES,
                    MessageKind::Data,
                    at,
                ));
                self.next_id += 1;
                let next = at + self.rng.exp_span(self.mean_gap);
                if next >= self.horizon {
                    break;
                }
                if next > now {
                    self.pending.push(Reverse((next, site)));
                    break;
                }
                at = next;
            }
        }
    }
}

// ---- The comparison ----

#[derive(Debug, Clone, Copy)]
enum Drive {
    /// Call `emit_due` at each next-emission instant, as the runner does.
    AtEmission,
    /// Call `emit_due` on a clock of fixed steps, so many sites fall due
    /// in one call.
    Coarse(Span),
}

fn stream(packets: &[Packet]) -> Vec<(u64, usize, usize, u32, Time)> {
    packets
        .iter()
        .map(|p| (p.id.0, p.src.index(), p.dst.index(), p.bytes, p.created))
        .collect()
}

/// Runs the source and the oracle in lockstep until `cap` packets were
/// emitted or both are exhausted, asserting identical output after every
/// call. Returns the oracle's due-set sizes.
fn compare(
    pattern: Pattern,
    load: f64,
    seed: u64,
    horizon: Option<Time>,
    drive: Drive,
    cap: u64,
) -> Vec<usize> {
    let grid = Grid::new(16);
    let mut real = OpenLoopTraffic::new(&grid, pattern, load, SITE_PEAK, BYTES, seed);
    let mut oracle = Oracle::new(&grid, pattern, load, seed);
    assert_eq!(real.mean_gap(), oracle.mean_gap);
    if let Some(h) = horizon {
        real.set_horizon(h);
        oracle.set_horizon(h);
    }
    let case = format!("{pattern:?} load {load} seed {seed} horizon {horizon:?} {drive:?}");
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut clock = Time::ZERO;
    while real.emitted() < cap {
        assert_eq!(real.next_emission(), oracle.next_emission(), "{case}");
        let Some(next) = real.next_emission() else {
            break;
        };
        let now = match drive {
            Drive::AtEmission => next,
            Drive::Coarse(step) => {
                while clock < next {
                    clock += step;
                }
                clock
            }
        };
        got.clear();
        want.clear();
        real.emit_due(now, &mut got);
        oracle.emit_due(now, &mut want);
        assert!(!got.is_empty(), "{case}: nothing emitted at {now:?}");
        assert_eq!(stream(&got), stream(&want), "{case}: at {now:?}");
    }
    assert_eq!(real.emitted(), oracle.next_id, "{case}");
    assert_eq!(
        real.is_exhausted(),
        oracle.next_emission().is_none(),
        "{case}"
    );
    oracle.due_sizes
}

#[test]
fn emission_stream_matches_the_pop_all_oracle() {
    let mut single = 0usize;
    let mut multi = 0usize;
    let mut multi_at_emission = 0usize;
    for seed in [1, 2, 41] {
        for pattern in [Pattern::Uniform, Pattern::Transpose, Pattern::HotSpot] {
            for load in [0.002, 0.05, 0.5, 1.0] {
                for horizon in [None, Some(Time::from_ns(20))] {
                    // With a horizon the source runs until it is exhausted.
                    let cap = if horizon.is_some() { u64::MAX } else { 6_000 };
                    for drive in [Drive::AtEmission, Drive::Coarse(Span::from_ps(500))] {
                        let sizes = compare(pattern, load, seed, horizon, drive, cap);
                        single += sizes.iter().filter(|&&n| n == 1).count();
                        let several = sizes.iter().filter(|&&n| n > 1).count();
                        multi += several;
                        if matches!(drive, Drive::AtEmission) {
                            multi_at_emission += several;
                        }
                    }
                }
            }
        }
    }
    // Both paths of `emit_due` ran, including sites falling due at one
    // instant when the source is driven exactly as the runner drives it.
    assert!(single > 0, "no call had a single due site");
    assert!(multi > 0, "no call had several due sites");
    assert!(
        multi_at_emission > 0,
        "no two sites fell due at one instant"
    );
}

#[test]
fn extreme_load_matches_the_oracle() {
    // At 10^4 x peak the mean gap clamps to one tick, so most calls find
    // many sites due and each site re-emits several times per call.
    let sizes = compare(
        Pattern::Uniform,
        1e4,
        3,
        Some(Time::from_ps(300)),
        Drive::AtEmission,
        u64::MAX,
    );
    assert!(sizes.iter().any(|&n| n > 16), "{sizes:?}");
}
