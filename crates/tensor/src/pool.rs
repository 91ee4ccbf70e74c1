//! Reusable workspace buffers for the zero-allocation steady state.
//!
//! The paper's end-to-end-utility argument (§3) is that per-round overheads
//! the compression ratio hides — here, allocator churn — decide whether a
//! scheme wins wall-clock. This module is the churn sink: buffers are
//! checked out once, grown to their high-water mark during warm-up, and
//! reused every round after. Two building blocks:
//!
//! * [`Workspace`] — a size-classed checkout/checkin pool of `Vec` scratch
//!   buffers (`f32`/`i32`/`u32`/`u64`/`usize`). Checkout returns an empty
//!   vec whose capacity is at least the requested amount once a buffer of
//!   that class has been checked in; checkin recycles it. Use it for
//!   transient buffers whose sizes vary call to call.
//! * [`WorkerBufs`] — one persistent `Vec<T>` per (logical) worker, for the
//!   per-scheme round scratch owned across rounds. `prepare(n)` clears the
//!   first `n` slots (retaining capacity) and hands back exactly `&mut
//!   [Vec<T>; n]`, ready to be filled and passed to a collective.
//!
//! **Checkout discipline:** every buffer that crosses a round boundary must
//! live in a scratch struct owned by the scheme (not re-checked-out each
//! round), and fill patterns must be `clear()` + `extend…` / `resize` so
//! the backing allocation survives. The `tests/alloc_budget.rs` harness
//! (counting global allocator) asserts the steady state allocates nothing;
//! violating the discipline fails that test, not production.

/// Number of size classes: class `c` holds buffers of capacity `>= 1 << c`.
/// 2^40 elements is far beyond anything this codebase addresses.
const CLASSES: usize = 40;
/// Retention bound per class — beyond this, checked-in buffers are dropped
/// so a one-off burst cannot pin memory forever.
const MAX_PER_CLASS: usize = 32;

/// Size class of a *request*: smallest `c` with `1 << c >= want`.
fn class_for_request(want: usize) -> usize {
    (usize::BITS - want.saturating_sub(1).leading_zeros()) as usize
}

/// Size class of an *owned* buffer: largest `c` with `1 << c <= capacity`,
/// so every buffer filed under class `c` really has `capacity >= 1 << c`.
fn class_for_capacity(cap: usize) -> Option<usize> {
    if cap == 0 {
        return None;
    }
    Some((usize::BITS - 1 - cap.leading_zeros()) as usize)
}

/// A size-classed pool for one element type.
#[derive(Clone, Debug)]
pub struct SizeClassPool<T> {
    classes: Vec<Vec<Vec<T>>>,
    hits: u64,
    misses: u64,
}

impl<T> Default for SizeClassPool<T> {
    fn default() -> Self {
        SizeClassPool {
            classes: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<T> SizeClassPool<T> {
    /// Checks out an empty vec with `capacity >= want`. Reuses a pooled
    /// buffer when one of a sufficient class is available; otherwise
    /// allocates (a *miss*, expected only during warm-up).
    pub fn checkout(&mut self, want: usize) -> Vec<T> {
        let class = class_for_request(want).min(CLASSES - 1);
        let start = class.min(self.classes.len());
        for shelf in self.classes[start..].iter_mut() {
            if let Some(mut buf) = shelf.pop() {
                buf.clear();
                self.hits += 1;
                return buf;
            }
        }
        self.misses += 1;
        Vec::with_capacity(want)
    }

    /// Returns a buffer to the pool. Zero-capacity buffers are dropped
    /// (nothing to reuse); classes at their retention bound drop too.
    pub fn checkin(&mut self, buf: Vec<T>) {
        let Some(class) = class_for_capacity(buf.capacity()) else {
            return;
        };
        let class = class.min(CLASSES - 1);
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        if self.classes[class].len() < MAX_PER_CLASS {
            self.classes[class].push(buf);
        }
    }

    /// (checkout hits, checkout misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A typed workspace of pooled scratch buffers.
///
/// One field per element type the hot path stages: gradients and scales
/// (`f32`), quantized lanes (`i32`), sparse indices (`u32`/`usize`), and
/// packed words (`u64`).
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub f32s: SizeClassPool<f32>,
    pub i32s: SizeClassPool<i32>,
    pub u32s: SizeClassPool<u32>,
    pub u64s: SizeClassPool<u64>,
    pub usizes: SizeClassPool<usize>,
}

impl Workspace {
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Runs `f` with an `f32` scratch buffer of capacity `>= want`,
    /// checking it back in afterwards (panic-safe enough for our use: a
    /// panic merely leaks the one buffer).
    pub fn with_f32<R>(&mut self, want: usize, f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
        let mut buf = self.f32s.checkout(want);
        let out = f(&mut buf);
        self.f32s.checkin(buf);
        out
    }

    /// As [`Workspace::with_f32`], for `u64` word buffers.
    pub fn with_u64<R>(&mut self, want: usize, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
        let mut buf = self.u64s.checkout(want);
        let out = f(&mut buf);
        self.u64s.checkin(buf);
        out
    }
}

/// Persistent per-worker buffers: the `Vec<Vec<T>>` shape every collective
/// consumes, owned across rounds so the steady state never reallocates.
#[derive(Clone, Debug)]
pub struct WorkerBufs<T> {
    bufs: Vec<Vec<T>>,
}

impl<T> Default for WorkerBufs<T> {
    fn default() -> Self {
        WorkerBufs { bufs: Vec::new() }
    }
}

impl<T> WorkerBufs<T> {
    /// Ensures `n` slots exist and clears each (capacity retained).
    /// Returns exactly the `n` worker buffers, ready to fill.
    pub fn prepare(&mut self, n: usize) -> &mut [Vec<T>] {
        if self.bufs.len() < n {
            self.bufs.resize_with(n, Vec::new);
        }
        for buf in &mut self.bufs[..n] {
            buf.clear();
        }
        &mut self.bufs[..n]
    }

    /// The first `n` buffers, unmodified (e.g. to read a collective's
    /// result or to hand `&[Vec<T>]` to an all-gather).
    pub fn slice(&self, n: usize) -> &[Vec<T>] {
        &self.bufs[..n]
    }

    /// Mutable view of the first `n` buffers without clearing — for the
    /// second borrow when a collective consumes buffers filled earlier.
    pub fn slice_mut(&mut self, n: usize) -> &mut [Vec<T>] {
        &mut self.bufs[..n]
    }
}

impl<T: Clone> WorkerBufs<T> {
    /// Clears and refills the first `n` buffers as copies of `src`
    /// (sequential; use `parallel::for_each_chunk_mut` over
    /// [`WorkerBufs::prepare`]'s slice for the parallel version).
    pub fn copy_from(&mut self, src: &[Vec<T>]) -> &mut [Vec<T>] {
        let n = src.len();
        let bufs = self.prepare(n);
        for (dst, s) in bufs.iter_mut().zip(src) {
            dst.extend_from_slice(s);
        }
        bufs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_capacity_honors_request() {
        let mut pool = SizeClassPool::<f32>::default();
        let buf = pool.checkout(100);
        assert!(buf.capacity() >= 100);
        assert!(buf.is_empty());
    }

    #[test]
    fn checkin_then_checkout_reuses_allocation() {
        let mut pool = SizeClassPool::<f32>::default();
        let mut buf = pool.checkout(1000);
        buf.extend(std::iter::repeat_n(1.0, 1000));
        let ptr = buf.as_ptr();
        pool.checkin(buf);
        // A smaller request must be served by the pooled (larger) buffer.
        let again = pool.checkout(500);
        assert_eq!(again.as_ptr(), ptr, "pooled buffer was not reused");
        assert!(again.is_empty(), "checkout must hand back a cleared vec");
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn smaller_buffer_never_serves_larger_request() {
        let mut pool = SizeClassPool::<u64>::default();
        let buf = pool.checkout(64);
        let small_cap = buf.capacity();
        pool.checkin(buf);
        let big = pool.checkout(small_cap * 4);
        assert!(big.capacity() >= small_cap * 4);
    }

    #[test]
    fn zero_capacity_checkin_is_dropped() {
        let mut pool = SizeClassPool::<i32>::default();
        pool.checkin(Vec::new());
        // A follow-up checkout must still produce usable capacity.
        assert!(pool.checkout(8).capacity() >= 8);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = SizeClassPool::<u32>::default();
        for _ in 0..(MAX_PER_CLASS + 10) {
            pool.checkin(Vec::with_capacity(16));
        }
        let shelved: usize = pool.classes.iter().map(Vec::len).sum();
        assert!(shelved <= MAX_PER_CLASS);
    }

    #[test]
    fn workspace_with_f32_roundtrips() {
        let mut ws = Workspace::new();
        let ptr = ws.with_f32(256, |b| {
            b.extend((0..256).map(|i| i as f32));
            b.as_ptr()
        });
        // Steady state: second call reuses the same allocation.
        let ptr2 = ws.with_f32(256, |b| {
            assert!(b.is_empty());
            b.as_ptr()
        });
        assert_eq!(ptr, ptr2);
        assert_eq!(ws.f32s.stats().0, 1);
    }

    #[test]
    fn worker_bufs_prepare_is_stable_across_rounds() {
        let mut wb = WorkerBufs::<f32>::default();
        let bufs = wb.prepare(4);
        for (w, b) in bufs.iter_mut().enumerate() {
            b.extend(std::iter::repeat_n(w as f32, 128));
        }
        let ptrs: Vec<*const f32> = wb.slice(4).iter().map(|b| b.as_ptr()).collect();
        // Round 2: same n, same allocations.
        let bufs = wb.prepare(4);
        for b in bufs.iter_mut() {
            b.extend(std::iter::repeat_n(0.0, 128));
        }
        for (b, &p) in wb.slice(4).iter().zip(&ptrs) {
            assert_eq!(b.as_ptr(), p, "prepare() must not reallocate");
        }
    }

    #[test]
    fn worker_bufs_copy_from_matches_source() {
        let src = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let mut wb = WorkerBufs::default();
        let got = wb.copy_from(&src);
        assert_eq!(got, src.as_slice());
    }

    #[test]
    fn class_math_is_consistent() {
        for want in [1usize, 2, 3, 64, 65, 1 << 20] {
            let c = class_for_request(want);
            assert!((1usize << c) >= want, "want={want} class={c}");
        }
        for cap in [1usize, 2, 3, 64, 65, 1 << 20] {
            let c = class_for_capacity(cap).unwrap();
            assert!((1usize << c) <= cap, "cap={cap} class={c}");
        }
        assert_eq!(class_for_capacity(0), None);
        // The invariant that makes checkout sound: any buffer filed under
        // class c serves any request whose class is <= c.
        assert!(class_for_capacity(100).unwrap() >= class_for_request(64));
    }
}
