//! A host-speed gauge: a fixed reference kernel timed between the
//! workload's own steps, so that host times can be scaled to a constant
//! host speed.
//!
//! On a shared virtual machine the host's speed drifts by tens of percent
//! over minutes as other tenants load the shared caches and memory, and
//! that moves every host time by about the same factor. The kernel does the
//! same kind of work as the simulator — priority-queue churn, random reads
//! and writes over a table larger than the L2 cache, and a dependent chain
//! of loads — so it slows down with it. A step's host time over the
//! kernel's host time around it is steady; multiplied by
//! [`NOMINAL_TICK_S`], it reads as seconds on a host running at the speed
//! the kernel was calibrated at.
//!
//! The kernel shares no code with the simulator, so a change that speeds
//! up the simulator leaves the gauge where it was.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one tick of the kernel takes at the nominal host speed:
/// the median tick on the 2-vCPU, 2.0 GHz Linux VM described in README.md.
pub const NOMINAL_TICK_S: f64 = 1.3e-3;

/// Entries in the random-access table: 4 MiB of `u64`.
const TABLE_LEN: usize = 1 << 19;

/// Keys kept in the priority queue: 512 KiB.
const HEAP_LEN: usize = 1 << 16;

/// Iterations of the kernel per tick.
const STEPS_PER_TICK: usize = 8_192;

/// The reference kernel's state, which persists across ticks so that every
/// tick does the same amount of work on a warm working set.
struct Kernel {
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    rng: u64,
    cursor: usize,
}

impl Kernel {
    fn new() -> Kernel {
        let mut k = Kernel {
            heap: BinaryHeap::with_capacity(HEAP_LEN),
            table: Vec::with_capacity(TABLE_LEN),
            rng: 0x9e37_79b9_7f4a_7c15,
            cursor: 0,
        };
        for _ in 0..TABLE_LEN {
            let r = k.next();
            k.table.push(r);
        }
        for _ in 0..HEAP_LEN {
            let r = k.next() >> 24;
            k.heap.push(Reverse(r));
        }
        // Untimed ticks warm the caches and the branch predictors.
        for _ in 0..4 {
            k.tick();
        }
        k
    }

    /// xorshift64*.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Runs the kernel once and returns its host seconds.
    fn tick(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..STEPS_PER_TICK {
            let r = self.next();
            // Event-queue churn: pop the earliest key, schedule a later one.
            let Reverse(now) = self.heap.pop().expect("the heap is never empty");
            self.heap.push(Reverse(now + (r & 0xffff) + 1));
            // A random read-modify-write and a dependent load.
            let slot = (r >> 32) as usize % TABLE_LEN;
            self.table[slot] = self.table[slot].wrapping_add(now);
            self.cursor = (self.table[self.cursor] ^ r) as usize % TABLE_LEN;
        }
        black_box(self.table[self.cursor]);
        started.elapsed().as_secs_f64()
    }
}

/// Kernels ticked between consecutive timed steps, one per thread the
/// steps run on, so that the gauge sees the cores the steps use.
pub struct Gauge {
    kernels: Vec<Kernel>,
    /// The previous tick.
    last: f64,
}

impl Gauge {
    pub fn new(threads: usize) -> Gauge {
        let mut g = Gauge {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            last: 0.0,
        };
        g.last = g.tick();
        g
    }

    /// Ticks every kernel at once and returns the mean tick.
    fn tick(&mut self) -> f64 {
        let n = self.kernels.len() as f64;
        if let [one] = self.kernels.as_mut_slice() {
            return one.tick();
        }
        std::thread::scope(|s| {
            let threads: Vec<_> = self
                .kernels
                .iter_mut()
                .map(|k| s.spawn(|| k.tick()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("gauge thread panicked"))
                .sum::<f64>()
                / n
        })
    }

    /// Ends a step: ticks again and returns the mean of this tick and the
    /// previous one, the host speed around the step between them.
    pub fn step(&mut self) -> f64 {
        let now = self.tick();
        let around = 0.5 * (self.last + now);
        self.last = now;
        around
    }
}

/// Scales `host_s`, measured while the gauge's ticks took `tick_s`, to
/// seconds at the nominal host speed.
pub fn scaled(host_s: f64, tick_s: f64) -> f64 {
    host_s * NOMINAL_TICK_S / tick_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_take_time_and_scaling_is_proportional() {
        for threads in [1, 2] {
            let mut g = Gauge::new(threads);
            assert!(g.step() > 0.0);
        }
        assert_eq!(scaled(2.0, NOMINAL_TICK_S), 2.0);
        assert!((scaled(3.0, 2.0 * NOMINAL_TICK_S) - 1.5).abs() < 1e-12);
    }
}
