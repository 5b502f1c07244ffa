//! Allocation counting for the `experiments peak` command and the
//! allocation guard test: every allocation, the bytes live and the most
//! there have been live, counted over every thread.
//!
//! The counters and the windows that read them are safe code here. The
//! allocator itself is `unsafe` to implement, so this crate only defines it
//! as a macro: a binary or test invokes
//! [`counting_allocator!`](crate::counting_allocator) and declares the type
//! it defines as its own `#[global_allocator]`:
//!
//! ```ignore
//! routing_bench::counting_allocator!(CountingAlloc);
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//! ```
//!
//! Deallocations are not counted as allocations — the guard is about *new*
//! memory on the hot path — but they do lower the live bytes. A reading is
//! a build's alone when nothing else allocates meanwhile: run it at
//! `threads = 1`, or with every other thread idle.

use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations made and not yet freed.
static LIVE_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most there have been since
/// the last [`peak_bytes_in`] began.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Counts an allocation of `bytes`; the allocator calls it.
#[doc(hidden)]
pub fn count_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    grew(bytes);
}

/// Counts a reallocation from `old` to `new` bytes; the allocator calls it.
#[doc(hidden)]
pub fn count_realloc(old: usize, new: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    match new.checked_sub(old) {
        Some(more) => grew(more),
        None => shrank(old - new),
    }
}

/// Counts a deallocation of `bytes`; the allocator calls it.
#[doc(hidden)]
pub fn count_dealloc(bytes: usize) {
    LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
    shrank(bytes);
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Allocations made and not yet freed.
pub fn live_allocations() -> u64 {
    LIVE_ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns how many allocations it performed.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// Runs `f` and returns the most bytes that were live during it beyond
/// those live when it began.
pub fn peak_bytes_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - before, result)
}

/// Runs `f` and returns the bytes its result keeps live: those live after
/// it beyond those live when it began.
pub fn kept_bytes_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = LIVE.load(Ordering::Relaxed);
    let result = f();
    (LIVE.load(Ordering::Relaxed) - before, result)
}

/// Defines `$name`, a `GlobalAlloc` that counts through this module and
/// delegates to the system allocator, for the invoking crate to declare as
/// its `#[global_allocator]`.
#[macro_export]
macro_rules! counting_allocator {
    ($name:ident) => {
        /// Counts every allocation through `routing_bench::alloc` and
        /// delegates to the system allocator.
        struct $name;

        // SAFETY: every method forwards its arguments unchanged to
        // `System`, which upholds the `GlobalAlloc` contract; the counting
        // touches only atomics and never allocates.
        unsafe impl ::std::alloc::GlobalAlloc for $name {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                $crate::alloc::count_alloc(layout.size());
                // SAFETY: the caller's obligations are `System::alloc`'s.
                unsafe { ::std::alloc::GlobalAlloc::alloc(&::std::alloc::System, layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                $crate::alloc::count_alloc(layout.size());
                // SAFETY: the caller's obligations are `System::alloc_zeroed`'s.
                unsafe { ::std::alloc::GlobalAlloc::alloc_zeroed(&::std::alloc::System, layout) }
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                $crate::alloc::count_realloc(layout.size(), new_size);
                // SAFETY: `ptr` came from `System` with this layout, and the
                // caller guarantees `new_size` is valid for it.
                unsafe {
                    ::std::alloc::GlobalAlloc::realloc(&::std::alloc::System, ptr, layout, new_size)
                }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                $crate::alloc::count_dealloc(layout.size());
                // SAFETY: `ptr` came from `System` with this layout.
                unsafe { ::std::alloc::GlobalAlloc::dealloc(&::std::alloc::System, ptr, layout) }
            }
        }
    };
}
