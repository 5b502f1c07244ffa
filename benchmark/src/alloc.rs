//! A counting allocator over `System`, armed only around the memory pass
//! of the set-up (repetition 0): peak live bytes during a build and bytes
//! still live when it returns.
//!
//! Counting is per thread: only the thread that armed it is counted, so a
//! reading is exact at `threads = 1` (where `routing-par` runs every
//! closure on the caller) and undisturbed by other threads. Disarmed, an
//! allocation costs one thread-local read on top of `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

#[derive(Clone, Copy)]
struct Counting {
    armed: bool,
    live: isize,
    peak: isize,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor recurse.
    static COUNTING: Cell<Counting> = const { Cell::new(Counting { armed: false, live: 0, peak: 0 }) };
}

fn count(delta: isize) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|cell| {
        let mut t = cell.get();
        if t.armed {
            t.live += delta;
            t.peak = t.peak.max(t.live);
            cell.set(t);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, that is by `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was returned by `System` with this layout, and the
        // caller guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Heap use of one measured call, in bytes relative to the moment it began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapReading {
    /// Highest live byte count reached while the call ran.
    pub peak: usize,
    /// Bytes still live when the call returned (its result included).
    pub retained: usize,
}

/// Runs `f` on this thread with counting armed. The result is still alive
/// when `retained` is read, so for a build it is the size of what was built.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapReading) {
    COUNTING.with(|c| c.set(Counting { armed: true, live: 0, peak: 0 }));
    let out = f();
    let t = COUNTING.with(|c| c.replace(Counting { armed: false, live: 0, peak: 0 }));
    (out, HeapReading { peak: t.peak.max(0) as usize, retained: t.live.max(0) as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_counts_peak_and_retained() {
        let (kept, r) = measure(|| {
            let scratch = vec![0u8; 1 << 20];
            std::hint::black_box(&scratch);
            drop(scratch);
            vec![1u8; 1 << 16]
        });
        assert_eq!(kept.len(), 1 << 16);
        assert_eq!(r.retained, 1 << 16);
        assert!(r.peak >= 1 << 20, "peak {} misses the scratch buffer", r.peak);
        assert!(r.peak < (1 << 20) + (1 << 17));
    }

    #[test]
    fn disarmed_allocations_are_not_counted() {
        let before = vec![0u8; 1 << 18];
        let (_, r) = measure(|| ());
        assert_eq!(r, HeapReading { peak: 0, retained: 0 });
        // Freeing memory from before the arm point reads as negative live
        // bytes, clamped to zero, and allocations after disarming are free.
        let (_, r) = measure(move || drop(before));
        assert_eq!(r, HeapReading { peak: 0, retained: 0 });
        let after = vec![0u8; 1 << 18];
        let (_, r) = measure(|| std::hint::black_box(after.len()));
        assert_eq!(r, HeapReading { peak: 0, retained: 0 });
    }

    #[test]
    fn other_threads_are_not_counted() {
        let (_, r) = measure(|| {
            std::thread::scope(|s| {
                s.spawn(|| std::hint::black_box(vec![0u8; 1 << 20]).len());
            });
        });
        // Spawning allocates a little on this thread; the megabyte is the
        // other thread's.
        assert!(r.peak < 1 << 16, "peak {}", r.peak);
    }
}
