//! Proves the PR 5 satellite claim that `range_for_each` allocates
//! nothing on the common (non-degenerate) path: the traversal stack now
//! lives in a fixed inline array on the caller's frame, with a heap
//! spill only for trees deeper than its 64 slots.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not taint the unit-test
//! binary's measurements.

use nmbst::NmTreeMap;
use nmbst_reclaim::Leaky;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The counter is process-wide and the test harness runs tests on
/// parallel threads, so each test holds this lock for its whole body:
/// one test's measured window must not count another's allocations.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn range_for_each_allocates_nothing_on_balanced_trees() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Bulk-load for a guaranteed-balanced shape (depth ~13 ≪ the 64
    // inline slots) and `Leaky` so no reclamation bookkeeping allocates
    // behind the traversal's pin.
    let map: NmTreeMap<u64, u64, Leaky> = NmTreeMap::from_sorted_iter((0..1024).map(|k| (k, k)));

    // Warm-up: first pin of a thread may lazily allocate per-thread
    // state in some reclaimers; after this, steady state.
    let mut sink = 0u64;
    map.range_for_each(.., |_, v| sink = sink.wrapping_add(*v));

    let before = ALLOCS.load(Ordering::Relaxed);
    map.range_for_each(100..900, |k, v| {
        sink = sink.wrapping_add(k ^ v);
    });
    map.range_for_each(.., |_, _| {});
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "range_for_each must not heap-allocate on a balanced tree (sink={sink})"
    );
}

#[test]
fn range_for_each_spill_is_bounded_not_per_node() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A ~300-deep degenerate spine forces the spill `Vec`, but the
    // allocation cost must be the Vec's geometric growth (a handful of
    // reallocs), not O(nodes).
    let map: NmTreeMap<u64, (), Leaky> = NmTreeMap::new();
    for k in 0..300 {
        map.insert(k, ());
    }
    let mut n = 0usize;
    map.range_for_each(.., |_, _| n += 1); // warm-up
    assert_eq!(n, 300);

    let before = ALLOCS.load(Ordering::Relaxed);
    map.range_for_each(.., |_, _| {});
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(
        after - before <= 16,
        "spill must grow geometrically, not per node: {} allocations",
        after - before
    );
}
