//! Deterministic randomness plumbing.
//!
//! Two distinct kinds of randomness appear in gradient compression systems:
//!
//! * **Private randomness** — e.g. data shuffling on one worker. Any seeded
//!   RNG works.
//! * **Shared randomness** — values every worker must agree on *without
//!   communicating*: the RHT sign diagonal and the stochastic-rounding
//!   offsets of THC, and the chunk-permutation of the TopKC-Permutation
//!   ablation. Real systems derive these from a common seed exchanged at
//!   startup plus the round number; we model exactly that with
//!   [`SharedSeed`].
//!
//! Keeping the derivation explicit (SplitMix64 over `(experiment seed, round,
//! stream)`) makes every experiment bit-reproducible and makes it a type
//! error to confuse per-worker and shared streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seed that all workers of a training job share.
///
/// Derived deterministically from the experiment seed, the round number, and
/// a stream tag, so that (a) every worker computes the same value and (b)
/// different uses (RHT signs vs stochastic rounding) never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SharedSeed(u64);

/// Stream tags namespace the per-round shared randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Rademacher diagonal of the randomized Hadamard transform.
    RhtSigns,
    /// Stochastic-rounding thresholds for quantization.
    StochasticRounding,
    /// Coordinate permutation (TopKC-Permutation ablation).
    Permutation,
    /// Anything else; carries an explicit tag.
    Custom(u32),
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::RhtSigns => 0x01,
            Stream::StochasticRounding => 0x02,
            Stream::Permutation => 0x03,
            Stream::Custom(t) => 0x1_0000 + t as u64,
        }
    }
}

impl SharedSeed {
    /// Wraps a raw seed value (used mostly in tests).
    pub fn new(value: u64) -> SharedSeed {
        SharedSeed(value)
    }

    /// Derives the shared seed for (`experiment`, `round`, `stream`).
    pub fn derive(experiment: u64, round: u64, stream: Stream) -> SharedSeed {
        let mut x = experiment;
        x = splitmix64(x ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x = splitmix64(x ^ stream.tag());
        SharedSeed(x)
    }

    /// The raw 64-bit value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Builds a seeded [`StdRng`] from this seed.
    pub fn rng(self) -> StdRng {
        StdRng::seed_from_u64(self.0)
    }
}

/// Derives a *private* per-worker RNG for (`experiment`, `worker`, `round`).
pub fn worker_rng(experiment: u64, worker: usize, round: u64) -> StdRng {
    let mut x = experiment;
    x = splitmix64(x ^ (worker as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = splitmix64(x ^ round.wrapping_mul(0x94d0_49bb_1331_11eb));
    StdRng::seed_from_u64(x)
}

/// The SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic Fisher–Yates permutation of `0..n` driven by a shared
/// seed, written into `perm` (its capacity is kept, so a caller that owns
/// the buffer across rounds allocates nothing once it has grown).
///
/// Used by the TopKC-Permutation ablation (Table 4) and RandomK's shared
/// selection: all workers must apply the *same* permutation for the
/// aggregated result to be coherent.
pub fn shared_permutation_into(n: usize, seed: SharedSeed, perm: &mut Vec<usize>) {
    use rand::Rng;
    let mut rng = seed.rng();
    perm.clear();
    perm.extend(0..n);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_stream_separated() {
        let a = SharedSeed::derive(1, 5, Stream::RhtSigns);
        let b = SharedSeed::derive(1, 5, Stream::RhtSigns);
        assert_eq!(a, b);
        let c = SharedSeed::derive(1, 5, Stream::StochasticRounding);
        assert_ne!(a, c);
        let d = SharedSeed::derive(1, 6, Stream::RhtSigns);
        assert_ne!(a, d);
        let e = SharedSeed::derive(2, 5, Stream::RhtSigns);
        assert_ne!(a, e);
    }

    #[test]
    fn worker_rngs_differ_across_workers() {
        use rand::Rng;
        let x: u64 = worker_rng(1, 0, 0).gen();
        let y: u64 = worker_rng(1, 1, 0).gen();
        assert_ne!(x, y);
        // ...but are reproducible.
        let x2: u64 = worker_rng(1, 0, 0).gen();
        assert_eq!(x, x2);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut perm = vec![7; 3];
        shared_permutation_into(100, SharedSeed::new(9), &mut perm);
        let mut seen = [false; 100];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Not the identity (astronomically unlikely for a working shuffle).
        assert_ne!(perm, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn splitmix_mixes() {
        // Adjacent inputs produce very different outputs.
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }
}
