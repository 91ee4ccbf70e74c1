//! Error feedback (EF) — the memory mechanism that makes biased compressors
//! converge.
//!
//! EF \[29, 44\] keeps, per worker, the residual between what the worker
//! wanted to send and what the compressor actually delivered, and adds it
//! back before the next compression. For TopK-style sparsifiers this is what
//! guarantees every coordinate is eventually transmitted; for PowerSGD it is
//! part of the algorithm's definition. The paper applies EF to both TopK and
//! TopKC (§3.1.3).
//!
//! The helper here is deliberately dumb, works in place and has one form:
//! [`ErrorFeedback::correct`] turns each worker's memory into its corrected
//! gradient `gradient + memory` and lends it out, then
//! [`ErrorFeedback::settle`] hands it back for the scheme to subtract what
//! the worker sent, only where it sent something (an unsent `c` is the
//! dense `c − 0.0` bit for bit). The *telescoping invariant* —
//! `memory_{t+1} = corrected_t − sent_t`, so the cumulative sent stream
//! equals the cumulative gradient stream minus the current memory — is
//! tested. Both calls fan out across workers on [`gcs_tensor::parallel`]:
//! memories are per-worker disjoint, so the result is bitwise identical to
//! a per-worker loop for any thread count.

/// Per-worker error-feedback memories.
#[derive(Clone, Debug)]
pub struct ErrorFeedback {
    memories: Vec<Vec<f32>>,
    enabled: bool,
}

impl ErrorFeedback {
    /// Creates EF state for `n_workers` workers; memories are lazily sized
    /// on first use.
    pub fn new(n_workers: usize, enabled: bool) -> ErrorFeedback {
        ErrorFeedback {
            memories: vec![Vec::new(); n_workers],
            enabled,
        }
    }

    /// Whether EF is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of workers this EF state tracks.
    pub fn n_workers(&self) -> usize {
        self.memories.len()
    }

    /// The corrected gradients of workers `0..grads.len()`: each memory
    /// becomes `gradient + memory` in place (in that order: of two NaNs,
    /// x86 keeps the first one's payload), parallel across workers, and the
    /// memories are returned. When disabled, `grads` itself.
    ///
    /// # Panics
    /// Panics if more gradients than workers are supplied, or a gradient
    /// length changed between rounds.
    #[allow(clippy::assign_op_pattern)]
    pub fn correct<'a>(&'a mut self, grads: &'a [Vec<f32>]) -> &'a [Vec<f32>] {
        if !self.enabled {
            return grads;
        }
        let n = grads.len();
        assert!(
            n <= self.memories.len(),
            "ErrorFeedback: {n} gradients for {} workers",
            self.memories.len()
        );
        for (mem, g) in self.memories[..n].iter_mut().zip(grads) {
            if mem.is_empty() {
                mem.resize(g.len(), 0.0);
            }
            assert_eq!(
                mem.len(),
                g.len(),
                "ErrorFeedback: gradient dimension changed"
            );
        }
        let _span = gcs_trace::span(gcs_trace::Phase::Compress, "ef_corrected");
        gcs_tensor::parallel::for_each_chunk_mut(&mut self.memories[..n], 1, |w, mem| {
            for (m, g) in mem[0].iter_mut().zip(&grads[w]) {
                *m = g + *m;
            }
        });
        &self.memories[..n]
    }

    /// Records what workers `0..n` sent: `subtract(w, memory)` takes worker
    /// `w`'s corrected gradient and subtracts from it what `w` sent, where
    /// it sent something, leaving the residual. Parallel across workers
    /// (their memories are disjoint). No-op when disabled.
    ///
    /// # Panics
    /// Panics if `n` exceeds the worker count.
    pub fn settle(&mut self, n: usize, subtract: impl Fn(usize, &mut [f32]) + Sync) {
        if !self.enabled {
            return;
        }
        assert!(
            n <= self.memories.len(),
            "ErrorFeedback: {n} updates for {} workers",
            self.memories.len()
        );
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "ef_update");
            gcs_tensor::parallel::for_each_chunk_mut(&mut self.memories[..n], 1, |w, mem| {
                subtract(w, &mut mem[0]);
            });
        }
        if gcs_trace::enabled() {
            let mean_norm = self.memories[..n]
                .iter()
                .map(|m| gcs_tensor::vector::norm(m) as f64)
                .sum::<f64>()
                / n as f64;
            gcs_trace::counter("ef_residual_norm", mean_norm);
        }
    }

    /// Clears all memories.
    pub fn reset(&mut self) {
        for m in &mut self.memories {
            m.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Textbook EF, one memory per worker: `c = g + m`, then `m = c − s`
    /// with a dense `s` (zero where nothing was sent).
    #[derive(Default)]
    struct Textbook {
        memories: Vec<Vec<f32>>,
    }

    impl Textbook {
        fn corrected(&mut self, grads: &[Vec<f32>]) -> Vec<Vec<f32>> {
            self.memories.resize_with(grads.len(), Vec::new);
            grads
                .iter()
                .zip(&mut self.memories)
                .map(|(g, m)| {
                    m.resize(g.len(), 0.0);
                    g.iter().zip(m.iter()).map(|(g, m)| g + m).collect()
                })
                .collect()
        }

        fn update(&mut self, corrected: &[Vec<f32>], sent: &[Vec<f32>]) {
            for ((m, c), s) in self.memories.iter_mut().zip(corrected).zip(sent) {
                *m = c.iter().zip(s).map(|(c, s)| c - s).collect();
            }
        }
    }

    /// What a compressor sends of one corrected gradient: a value per
    /// coordinate it sends, `None` elsewhere.
    type Sends = Vec<Option<f32>>;

    /// One EF round: the corrected gradients, then the memory update with
    /// `compress(corrected)` as what was sent, returned dense (zero where
    /// nothing was sent) for the textbook update.
    fn round(
        ef: &mut ErrorFeedback,
        grads: &[Vec<f32>],
        compress: impl Fn(&[f32]) -> Sends,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let corrected = ef.correct(grads).to_vec();
        let sends: Vec<Sends> = corrected.iter().map(|c| compress(c)).collect();
        ef.settle(grads.len(), |w, m| {
            for (x, s) in m.iter_mut().zip(&sends[w]) {
                if let Some(s) = s {
                    *x -= s;
                }
            }
        });
        let dense = sends
            .iter()
            .map(|s| s.iter().map(|v| v.unwrap_or(0.0)).collect())
            .collect();
        (corrected, dense)
    }

    /// Sends two coordinates in three, rounded to quarters (a NaN as it
    /// is, so `c − s` has one NaN payload to keep).
    fn quarter(c: &[f32]) -> Sends {
        c.iter()
            .enumerate()
            .map(|(i, &x)| {
                (i % 3 != 0).then(|| {
                    if x.is_nan() {
                        x
                    } else {
                        (x * 4.0).round() / 4.0
                    }
                })
            })
            .collect()
    }

    /// `rounds` rounds of `n` gradients of length `d`: finite values,
    /// `±0.0`, subnormals of either sign and quiet NaNs with payloads. A
    /// coordinate's NaN is drawn at most once, so no add or subtract meets
    /// two different payloads (which operand's payload survives is then
    /// not a property of the code).
    fn edge_grads(rounds: usize, n: usize, d: usize) -> Vec<Vec<Vec<f32>>> {
        let mut rng = StdRng::seed_from_u64(0xef);
        let mut poisoned = vec![vec![false; d]; n];
        let mut all = Vec::new();
        for _ in 0..rounds {
            let mut grads = Vec::new();
            for seen in &mut poisoned {
                let mut g = Vec::with_capacity(d);
                for nan_seen in seen.iter_mut() {
                    let sign = if rng.gen::<bool>() { 0x8000_0000u32 } else { 0 };
                    g.push(match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::from_bits(sign | rng.gen_range(1u32..0x0080_0000)),
                        3 if !*nan_seen => {
                            *nan_seen = true;
                            f32::from_bits(sign | 0x7fc0_0000 | rng.gen_range(1u32..0x0040_0000))
                        }
                        _ => rng.gen_range(-2.0f32..2.0),
                    });
                }
                grads.push(g);
            }
            all.push(grads);
        }
        all
    }

    fn bits(v: &[Vec<f32>]) -> Vec<Vec<u32>> {
        v.iter()
            .map(|x| x.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn telescoping_invariant() {
        // Over T rounds of a "send only the first coordinate" compressor,
        // cumulative sent = cumulative gradients - final memory.
        let mut ef = ErrorFeedback::new(1, true);
        let grads = [vec![1.0f32, 0.5], vec![0.2, 0.4], vec![-0.3, 0.1]];
        let mut cum_sent = [0.0f32; 2];
        let mut cum_grad = [0.0f32; 2];
        for g in &grads {
            let (_, sent) = round(&mut ef, std::slice::from_ref(g), |c| vec![Some(c[0]), None]);
            for i in 0..2 {
                cum_sent[i] += sent[0][i];
                cum_grad[i] += g[i];
            }
        }
        // Coordinate 0 is always fully sent; coordinate 1 accumulates.
        assert!((cum_sent[0] - cum_grad[0]).abs() < 1e-6);
        assert!((cum_grad[1] - ef.memories[0][1] - cum_sent[1]).abs() < 1e-6);
        assert!(gcs_tensor::vector::norm(&ef.memories[0]) > 0.0);
    }

    #[test]
    fn disabled_ef_is_identity() {
        let mut ef = ErrorFeedback::new(2, false);
        let grads = vec![vec![0.5f32], vec![1.0, 2.0]];
        let (c, _) = round(&mut ef, &grads, |c| vec![None; c.len()]);
        assert_eq!(c, grads);
        let (c2, _) = round(&mut ef, &grads, |c| vec![None; c.len()]);
        assert_eq!(c2, grads); // nothing remembered
                               // The gradients themselves are lent out, not a copy of them.
        assert!(std::ptr::eq(ef.correct(&grads), &grads[..]));
        assert!(ef.memories.iter().all(Vec::is_empty));
    }

    #[test]
    fn reset_clears() {
        let mut ef = ErrorFeedback::new(1, true);
        let g = vec![vec![1.0f32]];
        round(&mut ef, &g, |_| vec![None]);
        assert!(gcs_tensor::vector::norm(&ef.memories[0]) > 0.0);
        ef.reset();
        let (c, _) = round(&mut ef, &g, |_| vec![None]);
        assert_eq!(c, g);
    }

    #[test]
    fn batched_api_matches_per_worker_loop_across_thread_counts() {
        let (rounds, n, d) = (4, 5, 300);
        let grads = edge_grads(rounds, n, d);
        // Reference: the textbook per-worker loop with dense sends.
        let mut reference = Textbook::default();
        let mut ref_corrected = Vec::new();
        for g in &grads {
            ref_corrected = reference.corrected(g);
            let sents: Vec<Vec<f32>> = ref_corrected
                .iter()
                .map(|c| quarter(c).iter().map(|v| v.unwrap_or(0.0)).collect())
                .collect();
            reference.update(&ref_corrected, &sents);
        }
        for threads in [1, 2, 4] {
            gcs_tensor::parallel::with_threads(threads, || {
                let mut ef = ErrorFeedback::new(n, true);
                let mut corrected = Vec::new();
                for g in &grads {
                    corrected = round(&mut ef, g, quarter).0;
                }
                assert_eq!(bits(&corrected), bits(&ref_corrected), "threads={threads}");
                assert_eq!(
                    bits(&ef.memories),
                    bits(&reference.memories),
                    "threads={threads}"
                );
            });
        }
    }

    #[test]
    fn correct_reuses_its_memories_and_matches() {
        let n = 3;
        let grads = edge_grads(3, n, 64);
        let mut reference = Textbook::default();
        let mut ef = ErrorFeedback::new(n, true);
        let mut ptrs: Vec<*const f32> = Vec::new();
        for (round, g) in grads.iter().enumerate() {
            let expect = reference.corrected(g);
            let out = ef.correct(g);
            assert_eq!(bits(out), bits(&expect), "round={round}");
            let now: Vec<*const f32> = out.iter().map(|o| o.as_ptr()).collect();
            let sends: Vec<Sends> = out
                .iter()
                .map(|c| c.iter().map(|&x| Some(x * 0.5)).collect())
                .collect();
            let sents: Vec<Vec<f32>> = sends
                .iter()
                .map(|s| s.iter().map(|v| v.unwrap_or(0.0)).collect())
                .collect();
            reference.update(&expect, &sents);
            ef.settle(n, |w, m| {
                for (x, s) in m.iter_mut().zip(&sends[w]) {
                    *x -= s.unwrap_or(0.0);
                }
            });
            assert_eq!(
                bits(&ef.memories),
                bits(&reference.memories),
                "round={round}"
            );
            if round == 0 {
                ptrs = now;
            } else {
                assert_eq!(now, ptrs, "steady state must reuse the memories");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn dimension_change_is_detected() {
        let mut ef = ErrorFeedback::new(1, true);
        ef.correct(&[vec![1.0, 2.0]]);
        ef.correct(&[vec![1.0]]);
    }
}
