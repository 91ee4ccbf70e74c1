//! # gcs-tensor
//!
//! Tensor substrate for the gradient-compression utility suite.
//!
//! This crate provides everything the compression schemes and the neural-network
//! substrate need that would normally come from a GPU math library:
//!
//! * [`half`] — IEEE-754 binary16 ([`half::F16`]) with round-to-nearest-even
//!   semantics: software scalar conversions, and slice kernels (encode,
//!   decode, binary16 add) on F16C where the CPU has it, bitwise-identical
//!   to the scalar ones. Gradient *communication* precision is modelled
//!   bit-exactly.
//! * [`vector`] — flat `f32` vector kernels (norms, scale, reductions,
//!   top-k).
//! * [`arena`] — [`arena::ParamArena`]: one contiguous `Box<[f32]>` +
//!   layer-offset table per model replica, so a full model gradient is a
//!   single slice and replica sync is one `copy_from_slice`; and
//!   [`arena::ActivationArena`], the same layout for a layer stack's
//!   activations and activation gradients over a fixed chunk of samples.
//! * [`simd`] — explicit x86-64 SIMD fast paths (AVX2/SSE2, runtime
//!   detected) for the four hottest kernels, each bitwise-identical to its
//!   scalar reference; the scalar path runs on non-x86 targets and when
//!   feature detection fails.
//! * [`matrix`] — a small row-major dense [`matrix::Matrix`], the three
//!   slice matmuls and the modified Gram–Schmidt orthogonalization that
//!   PowerSGD depends on.
//! * [`hadamard`] — the (randomized) fast Walsh–Hadamard transform, both the
//!   full `O(d log d)` rotation and the *partial rotation* of the paper
//!   (§3.2.2): blockwise transforms sized to fit GPU shared memory.
//! * [`bitpack`] — `q`-bit packed integer vectors with wrapping and
//!   *saturating* lane arithmetic, the wire format of THC-style quantization.
//! * [`rng`] — deterministic seeding utilities, including the shared-randomness
//!   streams that all workers must agree on (RHT sign diagonals, stochastic
//!   rounding).
//! * [`parallel`] — a deterministic fork-join runtime (`GCS_THREADS`) the hot
//!   kernels fan out on: fixed chunk boundaries and ordered combines keep
//!   every parallel kernel bitwise-identical to its sequential reference.
//! * [`pool`] — [`pool::WorkerBufs`], the persistent per-worker buffers
//!   behind the zero-allocation steady-state invariant: after warm-up, one
//!   aggregation round performs no heap allocation.
//!
//! Everything here is deterministic given seeds and plain Rust — including
//! the multi-threaded paths, which are scheduled so that thread count never
//! changes a single output bit.

pub mod arena;
pub mod bitpack;
pub mod hadamard;
pub mod half;
pub mod matrix;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod vector;

pub use crate::half::F16;
pub use arena::{ActivationArena, ParamArena};
pub use bitpack::PackedIntVec;
pub use matrix::Matrix;
