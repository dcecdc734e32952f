//! A cluster's telemetry starts without its flight rings: each ring takes
//! its memory a chunk at a time as records land in it. One test function in
//! its own binary, because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use orca_telemetry::flight::{CAPACITY, CHUNKS};
use orca_telemetry::{FlightKind, Telemetry, TraceId};

/// The system allocator, counting the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_three_node_hub_allocates_its_rings_as_they_fill() {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let telemetry = Telemetry::new(3);
    let started = ALLOCATED.load(Ordering::SeqCst) - before;
    assert!(
        started < 64 * 1024,
        "Telemetry::new(3) allocated {started} B"
    );

    // The first record on a node allocates one chunk of its ring, the
    // records after it in that chunk nothing more.
    let before = ALLOCATED.load(Ordering::SeqCst);
    for _ in 0..CAPACITY / CHUNKS {
        telemetry.record(1, FlightKind::Send, TraceId::NONE, 0, 0);
    }
    let one_chunk = ALLOCATED.load(Ordering::SeqCst) - before;
    assert!(
        one_chunk > 0 && one_chunk < 16 * 1024,
        "one chunk: {one_chunk} B"
    );
    assert_eq!(telemetry.flight_events().len(), CAPACITY / CHUNKS);
}
