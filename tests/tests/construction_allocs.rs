//! Building a network makes a constant number of heap allocations,
//! whatever the grid size. The flat networks provision a queue or channel
//! per site pair (65,536 at side 16); those live in pooled queue arenas
//! and channel banks, a few allocations per network, not one heap object
//! each. A counting global allocator checks that every network kind makes
//! the same number of allocations at side 8 and at side 16.

use netcore::{MacrochipConfig, NetworkKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while building (not dropping) a `kind`
/// network on a `side`×`side` grid.
fn allocations_to_build(kind: NetworkKind, side: usize) -> u64 {
    let config = MacrochipConfig::with_side(side);
    let before = ALLOCATIONS.with(Cell::get);
    let net = networks::build(kind, config);
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(net);
    made
}

#[test]
fn construction_allocations_do_not_grow_with_the_grid() {
    for kind in NetworkKind::ALL {
        let side8 = allocations_to_build(kind, 8);
        let side16 = allocations_to_build(kind, 16);
        assert_eq!(
            side8,
            side16,
            "{} makes {side8} allocations at side 8 but {side16} at side 16",
            kind.name()
        );
    }
}
