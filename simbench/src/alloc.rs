//! A counting global allocator: every allocation goes to the system
//! allocator and, between [`start`] and [`stop`], its call count,
//! requested bytes and live bytes are tallied on the way. The counts are
//! of requested sizes, so a deterministic single-threaded workload
//! repeats them exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The process allocator, installed by `main.rs`.
pub struct Counting;

/// Whether allocations are being counted. Off, the allocator adds one
/// read of a never-written flag to each call; timed passes run that way.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes allocated since [`start`]: negative when memory allocated
/// before it is freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics that publish no
// other data, so relaxed atomics suffice.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocation totals of one counted interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocDelta {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest growth of the live heap over its level at [`start`].
    pub peak_live: u64,
}

/// Zeroes the counters and starts counting. Intervals must not nest.
pub fn start() {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stops counting and returns the totals since [`start`].
pub fn stop() -> AllocDelta {
    COUNTING.store(false, Relaxed);
    AllocDelta {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}
