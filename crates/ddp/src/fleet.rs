//! Transport-generic data-parallel training rounds for elastic fleets.
//!
//! The [`Trainer`](crate::engine::Trainer) in [`engine`](crate::engine)
//! simulates a cluster inside one process with a simulated clock — ideal
//! for TTA studies, useless for exercising a *real* transport. This module
//! is the other half: one training round expressed against the
//! [`MessageLinks`] seam, so the exact same round body runs over
//! `ThreadedCluster` channels (the in-process reference) or `TcpLinks`
//! (the multi-process socket mesh), and the results can be compared
//! bitwise.
//!
//! Determinism contract — the basis of the tcp-vs-threaded differential
//! tests:
//!
//! * every worker constructs the same model from the same seed, so initial
//!   parameters are identical without any startup broadcast;
//! * `Model::train_batch(batch, rank, round)` is a pure function of its
//!   arguments, so shards depend only on *logical* identity, not transport;
//! * the ring all-reduce reduces in a fixed order, so the summed gradient
//!   is bit-identical on every worker and across transports;
//! * the mean divides by the same `n` everywhere, and `Sgd::step_into` is
//!   sequential scalar code.
//!
//! Hence after any number of rounds, [`param_checksum`] agrees across all
//! workers and across transports — and any divergence pinpoints a
//! transport bug, not float noise.
//!
//! Elasticity: when membership changes mid-run (crash or join), ranks are
//! renumbered and the survivors' parameters are authoritative. Callers
//! re-sync with [`sync_params`] (rank 0 broadcasts; everyone resets
//! optimizer state so momentum stays identical fleet-wide) and then resume
//! [`fleet_round`] under the new `(rank, n)`.

use gcs_collectives::error::CollectiveError;
use gcs_collectives::transport::{broadcast_worker, ring_all_reduce_worker_into, MessageLinks};
use gcs_collectives::F32Sum;
use gcs_nn::{Batch, Model, Sgd};
use gcs_tensor::rng::splitmix64;

/// What one successful [`fleet_round`] produced on this worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetRoundOutcome {
    /// This worker's local training loss for the round (pre-aggregation).
    pub loss: f32,
    /// Payload bytes this worker sent during the all-reduce.
    pub bytes_sent: u64,
    /// Payload bytes this worker received during the all-reduce.
    pub bytes_received: u64,
}

/// What a worker keeps across [`fleet_round`]s, so that a warm round
/// allocates nothing: the training batch, the gradient being all-reduced,
/// and the ring's segment staging.
#[derive(Clone, Debug, Default)]
pub struct FleetScratch {
    batch: Batch,
    grads: Vec<f32>,
    ring: Vec<f32>,
}

/// Runs one synchronous data-parallel SGD round over any transport.
///
/// Shard → backward → ring all-reduce (exact `F32Sum`) → mean → SGD step.
/// The model is only mutated *after* the all-reduce succeeds, so a failed
/// round (peer crash, timeout) leaves parameters untouched and the round
/// can be retried wholesale after the fleet renumbers — rounds are atomic.
/// Every buffer of the round lives in the caller's `scratch`.
pub fn fleet_round<L: MessageLinks<f32>>(
    model: &mut dyn Model,
    opt: &mut Sgd,
    links: &mut L,
    batch_per_worker: usize,
    round: u64,
    scratch: &mut FleetScratch,
) -> Result<FleetRoundOutcome, CollectiveError> {
    let rank = links.rank();
    let n = links.n();
    let FleetScratch { batch, grads, ring } = scratch;
    let loss = {
        let _s = gcs_trace::span(gcs_trace::Phase::Compute, "fleet_compute");
        model.train_batch_into(batch_per_worker, rank, round, batch);
        let loss = model.forward_backward(batch);
        grads.clear();
        grads.extend_from_slice(model.grads_flat());
        loss
    };
    let (bytes_sent, bytes_received) = {
        let _s = gcs_trace::span(gcs_trace::Phase::Network, "fleet_all_reduce");
        ring_all_reduce_worker_into(links, grads, &F32Sum, 4.0, ring)?
    };
    gcs_trace::counter("fleet_wire_bytes", (bytes_sent + bytes_received) as f64);
    {
        let _s = gcs_trace::span(gcs_trace::Phase::Optimizer, "fleet_sgd_step");
        let inv = 1.0 / n as f32;
        for g in grads.iter_mut() {
            *g *= inv;
        }
        opt.step_into(model.params_flat_mut(), grads);
    }
    Ok(FleetRoundOutcome {
        loss,
        bytes_sent,
        bytes_received,
    })
}

/// Re-synchronizes a renumbered fleet: rank 0's parameters are broadcast
/// and adopted by everyone, and *every* worker resets its optimizer state.
///
/// The reset is what keeps the fleet deterministic after an elastic event:
/// a late joiner has zero momentum while survivors carry history, so
/// without the fleet-wide reset their SGD steps — and therefore their
/// parameters — would silently diverge on the very next round.
pub fn sync_params<L: MessageLinks<f32>>(
    model: &mut dyn Model,
    opt: &mut Sgd,
    links: &mut L,
) -> Result<(), CollectiveError> {
    let _s = gcs_trace::span(gcs_trace::Phase::Network, "fleet_sync_params");
    let params = model.params_flat().to_vec();
    let (params, _, _) = broadcast_worker(links, params, 0, 4.0)?;
    model.set_flat_params(&params);
    opt.reset();
    Ok(())
}

/// Order-sensitive checksum of the model's parameter bits: a SplitMix64
/// fold over `f32::to_bits`. Two models agree iff their parameters are
/// bitwise identical — the cross-process equality assertion of the fleet
/// tests, cheap enough to print every run.
pub fn param_checksum(model: &dyn Model) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params_flat() {
        acc = splitmix64(acc ^ u64::from(p.to_bits()));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_collectives::transport::ThreadedCluster;
    use gcs_nn::VggMini;

    fn train_threaded(n: usize, rounds: u64, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let cluster = ThreadedCluster::<f32>::new(n);
        cluster.run(move |_rank, mut links| {
            let mut model = VggMini::new(seed);
            let mut opt = Sgd::new(0.05, 0.9, 0.0);
            let mut losses = Vec::new();
            let mut scratch = FleetScratch::default();
            for round in 0..rounds {
                let out = fleet_round(&mut model, &mut opt, &mut links, 4, round, &mut scratch)
                    .expect("healthy cluster");
                losses.push(out.loss);
            }
            (param_checksum(&model), losses)
        })
    }

    #[test]
    fn fleet_round_is_deterministic_and_fleet_wide_identical() {
        let a = train_threaded(3, 2, 11);
        let b = train_threaded(3, 2, 11);
        // All workers end bitwise identical, and reruns reproduce exactly.
        assert!(a.iter().all(|(c, _)| *c == a[0].0));
        assert_eq!(a, b);
    }

    #[test]
    fn sync_params_aligns_a_diverged_worker() {
        let results = ThreadedCluster::<f32>::new(2).run(|rank, mut links| {
            // Worker 1 starts from a different seed — a stand-in for a
            // late joiner with no training history.
            let mut model = VggMini::new(if rank == 0 { 7 } else { 8 });
            let mut opt = Sgd::new(0.05, 0.9, 0.0);
            sync_params(&mut model, &mut opt, &mut links).expect("healthy cluster");
            let after_sync = param_checksum(&model);
            let mut scratch = FleetScratch::default();
            let out = fleet_round(&mut model, &mut opt, &mut links, 4, 0, &mut scratch)
                .expect("healthy cluster");
            (after_sync, out.loss, param_checksum(&model))
        });
        assert_eq!(results[0].0, results[1].0, "sync must align parameters");
        assert_eq!(results[0].2, results[1].2, "post-round params must agree");
    }
}
