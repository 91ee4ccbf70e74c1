//! A counting [`GlobalAlloc`] wrapper for allocation-budget tests.
//!
//! The zero-allocation claim of the steady-state hot path (ISSUE 4) is not
//! something a benchmark can prove — a benchmark shows *speed*, not the
//! *absence of heap traffic*. This crate makes the claim falsifiable: wrap
//! the system allocator in [`CountingAlloc`], run a warmed-up round under
//! [`measure`], and assert the count is zero.
//!
//! Counters are **thread-local** so concurrently running tests (the default
//! `cargo test` harness) do not pollute each other's measurements; a
//! measured region therefore only observes allocations made on its own
//! thread. Zero-alloc assertions must run the hot path on the measuring
//! thread (e.g. under `gcs_tensor::parallel::with_threads(1)`, where the
//! deterministic runtime takes its sequential path).
//!
//! The counters are `const`-initialized `Cell`s: no lazy TLS initialization
//! happens inside the allocation hooks, so the allocator never recurses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that forwards to [`System`] while counting per-thread
/// allocation events. Install it in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: gcs_alloc::CountingAlloc = gcs_alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned.
// The counting around each call only bumps const-initialized thread-local
// `Cell<u64>`s: they have no destructor and no lazy initializer, so the
// hooks never allocate (no recursion), never observe a destroyed key and
// never panic (no unwinding out of the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (the caller's contract).
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: the caller's `layout` contract is `System.alloc_zeroed`'s.
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|c| c.set(c.get() + 1));
        if new_size > layout.size() {
            BYTES.with(|c| c.set(c.get() + (new_size - layout.size()) as u64));
        }
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s contract (the caller's obligations, passed on).
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events observed on the current thread during a [`measure`]
/// region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` calls.
    pub allocs: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
    /// `realloc` calls (growth or shrink; counted separately from allocs).
    pub reallocs: u64,
    /// Bytes newly requested (alloc sizes plus realloc growth).
    pub bytes: u64,
}

impl AllocStats {
    /// Total heap events — what a zero-allocation budget bounds.
    pub fn total_events(&self) -> u64 {
        self.allocs + self.deallocs + self.reallocs
    }
}

fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.with(Cell::get),
        deallocs: DEALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Runs `f` and returns its result together with the allocation events the
/// *current thread* performed inside it. Only meaningful in a binary whose
/// global allocator is [`CountingAlloc`]; otherwise all counts read zero.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = snapshot();
    let result = f();
    let after = snapshot();
    (
        result,
        AllocStats {
            allocs: after.allocs - before.allocs,
            deallocs: after.deallocs - before.deallocs,
            reallocs: after.reallocs - before.reallocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// Whether a [`CountingAlloc`] is installed as the global allocator (probed
/// by performing one boxed allocation and checking the counter moved).
pub fn counting_enabled() -> bool {
    let (_, stats) = measure(|| std::hint::black_box(Box::new(0u8)));
    stats.allocs > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this crate does NOT install CountingAlloc (unit
    // tests here only exercise the bookkeeping), so counters stay zero and
    // the API must degrade gracefully.
    #[test]
    fn measure_without_installed_allocator_reads_zero() {
        let (v, stats) = measure(|| vec![1u8, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(stats, AllocStats::default());
        assert_eq!(stats.total_events(), 0);
        assert!(!counting_enabled());
    }

    #[test]
    fn stats_arithmetic() {
        let s = AllocStats {
            allocs: 2,
            deallocs: 1,
            reallocs: 3,
            bytes: 640,
        };
        assert_eq!(s.total_events(), 6);
    }
}
