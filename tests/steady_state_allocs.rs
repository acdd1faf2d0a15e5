//! The steady-state `dd` loop allocates (almost) nothing per TLP.
//!
//! Packets and payloads recycle through the kernel's pools, so once a
//! validation `dd` is running, a sector's ~250 TLPs should not touch the
//! heap. This binary installs a counting global allocator — its own
//! binary, so no other test's allocations are counted — and bounds the
//! allocations made by the second half of an 8 MB `dd` (1,024 sectors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::Tick;
use pcisim::system::builder::{build_system, SystemConfig};
use pcisim::system::workload::dd::DdConfig;

thread_local! {
    /// Allocations made by this thread; a test thread counts only its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation of the calling thread.
struct CountingAlloc;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the second half of the 8 MB `dd` (1,024 sectors, about
/// 260,000 TLPs) may make. It makes 31, all payload-pool misses in
/// `Ctx::clone_packet` when the link's burst drains the free list; one
/// allocation per sector would add 1,024.
const SECOND_HALF_BOUND: u64 = 40;

#[test]
fn second_half_of_a_validation_dd_stays_off_the_heap() {
    const BLOCK: u64 = 8 << 20;
    let mut built = build_system(SystemConfig::validation());
    let report = built.attach_dd(DdConfig { block_bytes: BLOCK, ..DdConfig::default() });
    while report.borrow().bytes < BLOCK / 2 {
        assert_eq!(built.sim.run(Tick::MAX, 10_000), RunOutcome::EventLimit);
    }
    let bytes_before = report.borrow().bytes;
    let before = ALLOCS.with(Cell::get);
    assert_eq!(built.sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    let allocs = ALLOCS.with(Cell::get) - before;
    let r = report.borrow();
    assert!(r.done && r.bytes == BLOCK);
    println!("{allocs} allocations over the last {} sectors", (BLOCK - bytes_before) / 4096);
    assert!(
        allocs <= SECOND_HALF_BOUND,
        "{allocs} allocations over the last {} bytes of dd (bound {SECOND_HALF_BOUND})",
        BLOCK - bytes_before
    );
}
