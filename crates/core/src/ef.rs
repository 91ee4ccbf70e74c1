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
//! The helper here is deliberately dumb, and has one form: every scheme
//! calls [`ErrorFeedback::corrected_all_into`] to get `gradient + memory`
//! for all its workers and [`ErrorFeedback::update_all`] with the
//! contributions that actually made it onto the wire. The *telescoping
//! invariant* — `memory_{t+1} = corrected_t − sent_t`, so the cumulative
//! sent stream equals the cumulative gradient stream minus the current
//! memory — is tested. Both calls fan out across workers on
//! [`gcs_tensor::parallel`]: memories are per-worker disjoint, so the
//! result is bitwise identical to a per-worker loop for any thread count,
//! and both write into buffers the scheme's round scratch owns.

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

    /// `gradient + memory` (a plain copy when disabled) for workers
    /// `0..grads.len()`, parallel across workers, written into caller-owned
    /// vectors (resized
    /// to one per worker, in worker order, each cleared and refilled in
    /// place) — allocation-free at steady state for schemes that own a round
    /// scratch.
    ///
    /// # Panics
    /// Panics if more gradients than workers are supplied, or a gradient
    /// length changed between rounds.
    pub fn corrected_all_into(&mut self, grads: &[Vec<f32>], out: &mut Vec<Vec<f32>>) {
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
        if out.len() != n {
            out.resize_with(n, Vec::new);
        }
        if !self.enabled {
            for (o, g) in out.iter_mut().zip(grads) {
                o.clear();
                o.extend_from_slice(g);
            }
            return;
        }
        let _span = gcs_trace::span(gcs_trace::Phase::Compress, "ef_corrected");
        let memories = &self.memories;
        gcs_tensor::parallel::for_each_chunk_mut(&mut out[..n], 1, |w, slot| {
            let o = &mut slot[0];
            o.clear();
            o.extend(grads[w].iter().zip(memories[w].iter()).map(|(g, m)| g + m));
        });
    }

    /// Records what was actually sent, `memory = corrected − sent`, for
    /// workers `0..corrected.len()`, parallel across workers (their memories
    /// are disjoint). No-op when disabled.
    ///
    /// # Panics
    /// Panics on any worker-count or dimension mismatch.
    pub fn update_all(&mut self, corrected: &[Vec<f32>], sent: &[Vec<f32>]) {
        if !self.enabled {
            return;
        }
        let n = corrected.len();
        assert_eq!(n, sent.len(), "ErrorFeedback: worker count mismatch");
        assert!(
            n <= self.memories.len(),
            "ErrorFeedback: {n} updates for {} workers",
            self.memories.len()
        );
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "ef_update");
            gcs_tensor::parallel::for_each_chunk_mut(&mut self.memories[..n], 1, |w, mem| {
                let mem = &mut mem[0];
                assert_eq!(
                    corrected[w].len(),
                    sent[w].len(),
                    "ErrorFeedback: length mismatch"
                );
                mem.clear();
                mem.extend(corrected[w].iter().zip(&sent[w]).map(|(c, s)| c - s));
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

    /// Textbook EF, one memory per worker: `c = g + m`, then `m = c − s`.
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

    /// One EF round: the corrected gradients, then the memory update with
    /// `compress(corrected)` as what was sent.
    fn round(
        ef: &mut ErrorFeedback,
        grads: &[Vec<f32>],
        compress: impl Fn(&[f32]) -> Vec<f32>,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut corrected = Vec::new();
        ef.corrected_all_into(grads, &mut corrected);
        let sent: Vec<Vec<f32>> = corrected.iter().map(|c| compress(c)).collect();
        ef.update_all(&corrected, &sent);
        (corrected, sent)
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
            let (_, sent) = round(&mut ef, std::slice::from_ref(g), |c| vec![c[0], 0.0]);
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
        let (c, _) = round(&mut ef, &grads, |c| vec![0.0; c.len()]);
        assert_eq!(c, grads);
        let (c2, _) = round(&mut ef, &grads, |c| vec![0.0; c.len()]);
        assert_eq!(c2, grads); // nothing remembered
    }

    #[test]
    fn reset_clears() {
        let mut ef = ErrorFeedback::new(1, true);
        let g = vec![vec![1.0f32]];
        round(&mut ef, &g, |_| vec![0.0]);
        assert!(gcs_tensor::vector::norm(&ef.memories[0]) > 0.0);
        ef.reset();
        let (c, _) = round(&mut ef, &g, |_| vec![0.0]);
        assert_eq!(c, g);
    }

    #[test]
    fn batched_api_matches_per_worker_loop_across_thread_counts() {
        let n = 5;
        let d = 300;
        let grads: Vec<Vec<f32>> = (0..n)
            .map(|w| (0..d).map(|i| ((w * d + i) as f32 * 0.13).sin()).collect())
            .collect();
        let quarter =
            |c: &[f32]| -> Vec<f32> { c.iter().map(|x| (x * 4.0).round() / 4.0).collect() };
        // Reference: the textbook per-worker loop, two rounds.
        let mut reference = Textbook::default();
        let mut ref_corrected = Vec::new();
        for _round in 0..2 {
            ref_corrected = reference.corrected(&grads);
            let sents: Vec<Vec<f32>> = ref_corrected.iter().map(|c| quarter(c)).collect();
            reference.update(&ref_corrected, &sents);
        }
        for threads in [1, 2, 4] {
            gcs_tensor::parallel::with_threads(threads, || {
                let mut ef = ErrorFeedback::new(n, true);
                let mut corrected = Vec::new();
                for _round in 0..2 {
                    corrected = round(&mut ef, &grads, quarter).0;
                }
                assert_eq!(corrected, ref_corrected, "threads={threads}");
                assert_eq!(ef.memories, reference.memories, "threads={threads}");
            });
        }
    }

    #[test]
    fn corrected_all_into_reuses_buffers_and_matches() {
        for enabled in [true, false] {
            let n = 3;
            let grads: Vec<Vec<f32>> = (0..n)
                .map(|w| {
                    (0..64)
                        .map(|i| ((w * 64 + i) as f32 * 0.29).cos())
                        .collect()
                })
                .collect();
            let mut reference = Textbook::default();
            let mut ef = ErrorFeedback::new(n, enabled);
            let mut out = Vec::new();
            let mut ptrs: Vec<*const f32> = Vec::new();
            for round in 0..3 {
                let expect = if enabled {
                    reference.corrected(&grads)
                } else {
                    grads.clone()
                };
                ef.corrected_all_into(&grads, &mut out);
                assert_eq!(out, expect, "enabled={enabled} round={round}");
                let sents: Vec<Vec<f32>> = out
                    .iter()
                    .map(|c| c.iter().map(|x| x * 0.5).collect())
                    .collect();
                reference.update(&expect, &sents);
                ef.update_all(&out, &sents);
                if round == 0 {
                    ptrs = out.iter().map(|o| o.as_ptr()).collect();
                } else {
                    for (o, &p) in out.iter().zip(&ptrs) {
                        assert_eq!(o.as_ptr(), p, "steady state must reuse buffers");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn dimension_change_is_detected() {
        let mut ef = ErrorFeedback::new(1, true);
        let mut out = Vec::new();
        ef.corrected_all_into(&[vec![1.0, 2.0]], &mut out);
        ef.corrected_all_into(&[vec![1.0]], &mut out);
    }
}
