//! The compression-scheme interface.
//!
//! A [`CompressionScheme`] is a *distributed algorithm*, not a codec: its
//! unit of work is one aggregation **round** over all workers' gradients,
//! executed through real collectives from `gcs-collectives`. This framing is
//! deliberate — the paper's design issues (all-reduce compatibility,
//! aggregation-time overflow, consensus on coordinates) only exist at the
//! round level, and a per-worker `compress()/decompress()` API would hide
//! them.
//!
//! Besides the functional result (the mean-gradient estimate every worker
//! receives), a round reports:
//!
//! * [`CommEvent`]s — which collective was invoked with how many payload
//!   bytes per worker (the paper's `b` accounting, Table 3);
//! * measured [`Traffic`] from the collectives layer;
//! * the compression compute cost, for the throughput model.

use gcs_collectives::Traffic;
use gcs_gpusim::DeviceSpec;
use gcs_netsim::{ClusterSpec, Collective};

/// Identifies one aggregation round for shared-randomness derivation.
#[derive(Clone, Copy, Debug)]
pub struct RoundContext {
    /// Monotone round counter.
    pub round: u64,
    /// The experiment's master seed (all workers share it).
    pub experiment_seed: u64,
}

impl RoundContext {
    /// Convenience constructor.
    pub fn new(experiment_seed: u64, round: u64) -> RoundContext {
        RoundContext {
            round,
            experiment_seed,
        }
    }
}

/// One collective invocation's description, sufficient for timing.
#[derive(Clone, Copy, Debug)]
pub struct CommEvent {
    /// Which collective ran.
    pub collective: Collective,
    /// Input payload per worker, in bytes (the all-reduce *input* size; wire
    /// amplification is the timing model's job).
    pub payload_bytes: f64,
}

impl CommEvent {
    /// Seconds this event takes on `cluster`.
    pub fn seconds(&self, cluster: &ClusterSpec) -> f64 {
        cluster.collective_seconds(self.collective, self.payload_bytes)
    }
}

/// Result of one distributed aggregation round.
#[derive(Clone, Debug, Default)]
pub struct AggregationOutcome {
    /// The estimate of the workers' **average** gradient that every worker
    /// holds after the round (identical across workers by construction).
    pub mean_estimate: Vec<f32>,
    /// Collective invocations performed, in order.
    pub comm: Vec<CommEvent>,
    /// Exact measured traffic from the collectives layer.
    pub traffic: Traffic,
}

impl AggregationOutcome {
    /// Total payload bits per gradient coordinate — the paper's `b`.
    pub fn bits_per_coord(&self, d: u64) -> f64 {
        let bits: f64 = self.comm.iter().map(|e| e.payload_bytes * 8.0).sum();
        bits / d as f64
    }

    /// Total communication seconds on `cluster`.
    pub fn comm_seconds(&self, cluster: &ClusterSpec) -> f64 {
        self.comm.iter().map(|e| e.seconds(cluster)).sum()
    }
}

/// A gradient compression scheme, viewed as a distributed aggregation
/// algorithm plus the static metadata the evaluation framework needs.
pub trait CompressionScheme {
    /// Short human-readable name, e.g. `"TopKC(b=2, C=64)"`.
    fn name(&self) -> String;

    /// Runs one aggregation round over `grads[worker]` (all equal length),
    /// writing into a caller-owned, reusable [`AggregationOutcome`]: every
    /// field is cleared and refilled in place, so a caller that keeps `out`
    /// across rounds keeps its allocations. Stateful: error-feedback
    /// memories, PowerSGD's `Q`, etc. live inside the scheme. This is the
    /// one round a scheme implements.
    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    );

    /// [`CompressionScheme::aggregate_round_into`] into a fresh outcome, for
    /// callers that run one round and keep the result.
    fn aggregate_round(&mut self, grads: &[Vec<f32>], ctx: &RoundContext) -> AggregationOutcome {
        let mut out = AggregationOutcome::default();
        self.aggregate_round_into(grads, ctx, &mut out);
        out
    }

    /// Whether the scheme's dominant collective is an all-reduce
    /// (vs all-gather / parameter server) — Table 1's compatibility column.
    fn all_reduce_compatible(&self) -> bool;

    /// Nominal payload bits per coordinate at gradient dimension `d`
    /// (the paper's `b`), *without* running any data.
    fn nominal_bits_per_coord(&self, d: u64) -> f64;

    /// Collective invocations a round performs at dimension `d`, for
    /// paper-scale timing without paper-scale data.
    fn comm_events(&self, d: u64) -> Vec<CommEvent>;

    /// Compression + decompression compute seconds per round at dimension
    /// `d` on `device` (paper-scale cost model).
    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64;

    /// Resets all per-training state (EF memories, low-rank warm starts).
    fn reset(&mut self);
}

/// Computes per-round step time at paper scale:
/// `model compute + compression compute + communication`.
pub fn step_seconds(
    scheme: &dyn CompressionScheme,
    d: u64,
    model_compute: f64,
    device: &DeviceSpec,
    cluster: &ClusterSpec,
) -> f64 {
    let comm: f64 = scheme
        .comm_events(d)
        .iter()
        .map(|e| e.seconds(cluster))
        .sum();
    model_compute + scheme.compute_seconds(d, device) + comm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_coord_accounting() {
        let outcome = AggregationOutcome {
            mean_estimate: vec![0.0; 4],
            comm: vec![
                CommEvent {
                    collective: Collective::RingAllReduce,
                    payload_bytes: 100.0,
                },
                CommEvent {
                    collective: Collective::RingAllReduce,
                    payload_bytes: 25.0,
                },
            ],
            traffic: Traffic::default(),
        };
        assert!((outcome.bits_per_coord(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_event_times_via_cluster() {
        let cluster = ClusterSpec::paper_testbed();
        let e = CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: 1e9,
        };
        let t = e.seconds(&cluster);
        // 2*(3/4)*1e9 / 9.53e9 plus latency.
        assert!((t - 1.5e9 / 9.53e9).abs() < 1e-3, "t = {t}");
    }
}
