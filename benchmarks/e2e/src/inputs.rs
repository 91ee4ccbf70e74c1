//! Everything a workload feeds the program is generated here from `--seed`.
//! The program sees the inputs, never the seed's meaning: the same seed
//! gives the same bytes, a different seed different ones.

use gcs_tensor::rng::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent stream seed for use `tag` of run seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

/// `len` values uniform in `[-1, 1)`, stream `tag` of `seed`.
pub fn uniform_vec(seed: u64, tag: u64, len: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(derive(seed, tag));
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One gradient per worker, `d` coordinates each.
pub fn worker_gradients(seed: u64, n_workers: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n_workers)
        .map(|w| uniform_vec(seed, 0x100 + w as u64, d))
        .collect()
}

/// Order-sensitive fold over the bit patterns of `values`, continuing from
/// `acc`. Two sequences agree iff they are bitwise identical (NaN payloads
/// and signed zeros included).
pub fn fold_bits(mut acc: u64, values: &[f32]) -> u64 {
    for v in values {
        acc = splitmix64(acc ^ u64::from(v.to_bits()));
    }
    acc
}

/// Starting value for [`fold_bits`].
pub const FOLD_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Checksum of a set of per-worker gradients.
pub fn checksum(grads: &[Vec<f32>]) -> u64 {
    grads.iter().fold(FOLD_INIT, |acc, g| fold_bits(acc, g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = worker_gradients(7, 4, 1000);
        let b = worker_gradients(7, 4, 1000);
        let c = worker_gradients(8, 4, 1000);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        // Workers get different gradients, all in range.
        assert_ne!(a[0], a[1]);
        assert!(a.iter().flatten().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_ne!(uniform_vec(3, 1, 64), uniform_vec(3, 2, 64));
    }

    #[test]
    fn fold_is_order_and_bit_sensitive() {
        assert_ne!(
            fold_bits(FOLD_INIT, &[1.0, 2.0]),
            fold_bits(FOLD_INIT, &[2.0, 1.0])
        );
        assert_ne!(fold_bits(FOLD_INIT, &[0.0]), fold_bits(FOLD_INIT, &[-0.0]));
    }
}
