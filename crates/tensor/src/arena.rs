//! Contiguous, offset-indexed parameter/gradient arena.
//!
//! Per-layer `Vec<f32>` storage forces every collective, replica sync and
//! compression round into fragmented per-layer calls — exactly the overhead
//! regime where compression stops paying for itself (HotNets'24 §3). A
//! [`ParamArena`] instead owns **one** `Box<[f32]>` per model replica plus a
//! layer-offset table, so:
//!
//! * a full model gradient is a single slice ([`ParamArena::as_slice`]),
//!   letting collectives run one pooled whole-model call per round;
//! * replica sync is a single `copy_from_slice` ([`ParamArena::copy_from`]);
//! * layers view their parameters as sub-slices ([`ParamArena::layer`]),
//!   with no storage of their own.
//!
//! Layout invariants (pinned by tests and relied on across crates):
//!
//! 1. `offsets.len() == n_layers + 1`, `offsets[0] == 0`,
//!    `offsets[n_layers] == data.len()`, offsets non-decreasing.
//! 2. Layer `i` occupies `data[offsets[i]..offsets[i + 1]]`; layers are
//!    contiguous with no padding, so concatenating the layer slices in
//!    order is bitwise-identical to the whole-arena slice.
//! 3. Offsets are expressed in `f32` elements (not bytes). `Box<[f32]>` is
//!    at least 4-byte aligned; kernels that want wider SIMD alignment must
//!    handle unaligned heads/tails themselves (they do — see
//!    `gcs_tensor::simd`).
//!
//! An [`ActivationArena`] applies the same layout to what a forward/backward
//! pass produces: two `ParamArena`s (layer outputs, and the loss gradient
//! with respect to them) whose region `i` holds layer `i`'s output for a
//! fixed chunk of samples. Layer `i`'s output region *is* layer `i + 1`'s
//! input, so a pass copies nothing and, once the chunk is sized, allocates
//! nothing.

/// One contiguous `f32` buffer shared by all layers of a model replica,
/// indexed by a layer-offset table.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamArena {
    data: Box<[f32]>,
    /// `offsets[i]..offsets[i + 1]` is layer `i`; length `n_layers + 1`.
    offsets: Vec<usize>,
}

impl ParamArena {
    /// Builds a zero-filled arena from per-layer parameter counts.
    /// Zero-length layers (parameter-free layers such as ReLU or pooling)
    /// are legal and occupy an empty slice.
    pub fn from_layer_lens(lens: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &len in lens {
            total += len;
            offsets.push(total);
        }
        Self {
            data: vec![0.0; total].into_boxed_slice(),
            offsets,
        }
    }

    /// Total number of `f32` elements across all layers.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the arena holds no parameters at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The offset table: one entry per layer plus one, first 0, last `len()`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Layer `i` as an immutable slice.
    pub fn layer(&self, i: usize) -> &[f32] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Layer `i` as a mutable slice.
    pub fn layer_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Layers `i` and `i + 1` at once (one producing into the other).
    pub fn layer_pair_mut(&mut self, i: usize) -> (&mut [f32], &mut [f32]) {
        let (lo, mid, hi) = (self.offsets[i], self.offsets[i + 1], self.offsets[i + 2]);
        let (a, b) = self.data[lo..hi].split_at_mut(mid - lo);
        (a, b)
    }

    /// The whole model as one flat slice (layer-concatenation order).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole model as one flat mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Replica sync: one memcpy of the whole model. Panics if `src` length
    /// differs from this arena's.
    pub fn copy_from(&mut self, src: &[f32]) {
        self.data.copy_from_slice(src);
    }
}

/// What layer `i ≥ 1`'s backward pass touches in an [`ActivationArena`].
pub struct BackwardViews<'a> {
    /// Layer `i`'s input: layer `i − 1`'s output.
    pub input: &'a [f32],
    /// Layer `i`'s output.
    pub output: &'a [f32],
    /// `d(loss)/d(output)`.
    pub grad_out: &'a [f32],
    /// `d(loss)/d(input)`, for the layer to overwrite.
    pub grad_in: &'a mut [f32],
}

/// Every layer output of a stack, and the loss gradient with respect to
/// each, for up to [`ActivationArena::chunk`] samples at a time.
///
/// Region `i` of both buffers is `chunk × widths[i]` elements; a pass over
/// `batch ≤ chunk` samples uses the leading `batch × widths[i]` of each.
/// Memory is bounded by the chunk, never by how many samples are streamed
/// through it.
#[derive(Debug, Clone)]
pub struct ActivationArena {
    /// Per-sample output width of each layer.
    widths: Vec<usize>,
    chunk: usize,
    values: ParamArena,
    grads: ParamArena,
}

impl ActivationArena {
    /// Builds zero-filled buffers for `chunk` samples of a stack whose
    /// layer `i` emits `widths[i]` values per sample.
    pub fn new(widths: &[usize], chunk: usize) -> Self {
        let lens: Vec<usize> = widths.iter().map(|w| w * chunk).collect();
        Self {
            widths: widths.to_vec(),
            chunk,
            values: ParamArena::from_layer_lens(&lens),
            grads: ParamArena::from_layer_lens(&lens),
        }
    }

    /// Samples one pass can hold.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Grows the buffers (discarding their contents) so that a pass over
    /// `batch` samples fits; a no-op once the largest batch has been seen.
    pub fn reserve(&mut self, batch: usize) {
        if batch > self.chunk {
            *self = Self::new(&self.widths, batch);
        }
    }

    fn span(&self, i: usize, batch: usize) -> usize {
        assert!(batch <= self.chunk, "ActivationArena: batch exceeds chunk");
        batch * self.widths[i]
    }

    /// Layer `i`'s output for the leading `batch` samples.
    pub fn output(&self, i: usize, batch: usize) -> &[f32] {
        &self.values.layer(i)[..self.span(i, batch)]
    }

    /// Layer `i`'s output region, for the layer to fill.
    pub fn output_mut(&mut self, i: usize, batch: usize) -> &mut [f32] {
        let n = self.span(i, batch);
        &mut self.values.layer_mut(i)[..n]
    }

    /// Layer `i ≥ 1`'s forward views: its input (layer `i − 1`'s output)
    /// and its own output region.
    pub fn forward_views(&mut self, i: usize, batch: usize) -> (&[f32], &mut [f32]) {
        let (n_in, n_out) = (self.span(i - 1, batch), self.span(i, batch));
        let (input, output) = self.values.layer_pair_mut(i - 1);
        (&input[..n_in], &mut output[..n_out])
    }

    /// Layer `i ≥ 1`'s backward views.
    pub fn backward_views(&mut self, i: usize, batch: usize) -> BackwardViews<'_> {
        let (n_in, n_out) = (self.span(i - 1, batch), self.span(i, batch));
        let (grad_in, grad_out) = self.grads.layer_pair_mut(i - 1);
        BackwardViews {
            input: &self.values.layer(i - 1)[..n_in],
            output: &self.values.layer(i)[..n_out],
            grad_out: &grad_out[..n_out],
            grad_in: &mut grad_in[..n_in],
        }
    }

    /// Layer `i`'s output and the gradient with respect to it — what the
    /// first layer's backward reads, and (for the last layer, gradient
    /// mutable) what the loss reads and writes.
    pub fn output_and_grad_mut(&mut self, i: usize, batch: usize) -> (&[f32], &mut [f32]) {
        let n = self.span(i, batch);
        (
            &self.values.layer(i)[..n],
            &mut self.grads.layer_mut(i)[..n],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_invariants_hold() {
        let a = ParamArena::from_layer_lens(&[6, 0, 4, 10]);
        assert_eq!(a.offsets().len(), 5);
        assert_eq!(a.len(), 20);
        assert_eq!(a.offsets(), &[0, 6, 6, 10, 20]);
        assert!(a.layer(1).is_empty());
        assert_eq!(a.layer(3).len(), 10);
    }

    #[test]
    fn layers_are_views_into_the_flat_slice() {
        let mut a = ParamArena::from_layer_lens(&[3, 2]);
        a.layer_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        a.layer_mut(1).copy_from_slice(&[4.0, 5.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Concatenating layer views reproduces the flat slice bitwise.
        let concat: Vec<f32> = (0..a.offsets().len() - 1)
            .flat_map(|i| a.layer(i).to_vec())
            .collect();
        assert_eq!(concat, a.as_slice());
    }

    #[test]
    fn copy_from_covers_the_whole_arena() {
        let mut a = ParamArena::from_layer_lens(&[2, 2]);
        a.copy_from(&[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(a.layer(1), &[7.0, 6.0]);
        assert_eq!(a.as_slice(), &[9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn layer_pair_mut_splits_adjacent_layers() {
        let mut a = ParamArena::from_layer_lens(&[2, 0, 3]);
        a.copy_from(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let (x, y) = a.layer_pair_mut(0);
        assert_eq!((x.len(), y.len()), (2, 0));
        let (x, y) = a.layer_pair_mut(1);
        assert!(x.is_empty());
        y[0] = 9.0;
        assert_eq!(a.as_slice(), &[1.0, 2.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn activation_views_chain_layer_outputs() {
        let mut a = ActivationArena::new(&[3, 2], 4);
        a.output_mut(0, 2)
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let (input, output) = a.forward_views(1, 2);
        assert_eq!(input, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        output.copy_from_slice(&[7.0, 8.0, 9.0, 10.0]);
        a.output_and_grad_mut(1, 2).1.fill(0.5);
        let v = a.backward_views(1, 2);
        assert_eq!(v.input.len(), 6);
        assert_eq!(v.output, &[7.0, 8.0, 9.0, 10.0]);
        assert_eq!(v.grad_out, &[0.5; 4]);
        assert_eq!(v.grad_in.len(), 6);
        // A smaller batch views a prefix of the same regions.
        assert_eq!(a.output(0, 1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reserve_grows_once_and_never_shrinks() {
        let mut a = ActivationArena::new(&[5], 2);
        a.reserve(1);
        assert_eq!(a.chunk(), 2);
        a.reserve(7);
        assert_eq!(a.chunk(), 7);
        assert_eq!(a.output(0, 7).len(), 35);
    }

    #[test]
    fn empty_arena_is_legal() {
        let a = ParamArena::from_layer_lens(&[]);
        assert!(a.is_empty());
        assert_eq!(a.offsets(), &[0]);
    }
}
