//! Reusable per-worker buffers for the zero-allocation steady state.
//!
//! The paper's end-to-end-utility argument (§3) is that per-round overheads
//! the compression ratio hides — here, allocator churn — decide whether a
//! scheme wins wall-clock. This module is the churn sink: [`WorkerBufs`] is
//! one persistent `Vec<T>` per (logical) worker, owned by a scheme's round
//! scratch across rounds. `prepare(n)` clears the first `n` slots (retaining
//! capacity) and hands back exactly `&mut [Vec<T>; n]`, ready to be filled
//! and passed to a collective.
//!
//! **Discipline:** every buffer that crosses a round boundary lives in a
//! scratch struct owned by the scheme, and fill patterns are `clear()` +
//! `extend…` / `resize` so the backing allocation survives. The
//! `tests/alloc_budget.rs` harness (counting global allocator) asserts the
//! steady state allocates nothing; violating the discipline fails that
//! test, not production.

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
}
