//! Cost-to-accuracy and power-to-accuracy — the paper's proposed future
//! direction (§4), implemented.
//!
//! TTA treats a second of a 4-GPU testbed and a second of a 1024-GPU pod as
//! equal; it also ignores that compression changes *what the cluster is
//! doing* during a round (tensor cores idle during communication, NICs idle
//! during Gram–Schmidt). This module converts a TTA curve plus a step-time
//! breakdown into:
//!
//! * **CTA** — dollars to reach an accuracy target, under a
//!   [`CostModel`] (per-GPU-hour price plus per-byte egress pricing, the
//!   cloud billing shape);
//! * **PTA** — joules to reach a target, under a [`PowerModel`] with
//!   distinct draw for compute-active, communication-active, and idle
//!   phases.
//!
//! The interesting consequence, which the `ablation_economics` bench
//! demonstrates: schemes can *reorder* between TTA and PTA/CTA. A scheme
//! that wins wall-clock by burning GPU time on compression compute (e.g.
//! PowerSGD at high rank) looks worse under power; a scheme that wins by
//! shrinking communication (TopKC, THC+Sat) looks even better under egress
//! pricing.

use crate::metrics::TtaCurve;

/// Billing model for a training cluster.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Number of GPUs (billing accrues on all of them for the full run).
    pub n_gpus: usize,
    /// Price per GPU-hour, dollars.
    pub gpu_hour_price: f64,
    /// Price per GiB crossing the network, dollars (0 for on-prem,
    /// nonzero for cloud cross-AZ traffic).
    pub per_gib_price: f64,
}

impl CostModel {
    /// On-demand A100 cloud pricing, cross-AZ traffic billed.
    pub fn cloud_a100(n_gpus: usize) -> CostModel {
        CostModel {
            n_gpus,
            gpu_hour_price: 4.10,
            per_gib_price: 0.01,
        }
    }

    /// Dollars for a training prefix of `seconds` wall-clock during which
    /// `wire_bytes` crossed the network in total.
    pub fn dollars(&self, seconds: f64, wire_bytes: f64) -> f64 {
        let gpu = self.n_gpus as f64 * seconds / 3600.0 * self.gpu_hour_price;
        let net = wire_bytes / (1u64 << 30) as f64 * self.per_gib_price;
        gpu + net
    }
}

/// Electrical model for one worker (GPU + NIC share).
#[derive(Clone, Debug)]
pub struct PowerModel {
    /// Number of GPUs.
    pub n_gpus: usize,
    /// Draw while the GPU computes (forward/backward/compression), watts.
    pub compute_watts: f64,
    /// Draw while the GPU waits on communication, watts (HBM + NIC active,
    /// SMs mostly idle).
    pub comm_watts: f64,
}

impl PowerModel {
    /// A100-SXM4 figures: ~400 W at full tilt, ~120 W while blocked on
    /// NCCL.
    pub fn a100(n_gpus: usize) -> PowerModel {
        PowerModel {
            n_gpus,
            compute_watts: 400.0,
            comm_watts: 120.0,
        }
    }

    /// Joules for one training round whose step decomposes into
    /// `compute_seconds` of busy GPU time and `comm_seconds` of
    /// communication-blocked time, across the cluster.
    pub fn round_joules(&self, compute_seconds: f64, comm_seconds: f64) -> f64 {
        self.n_gpus as f64 * (compute_seconds * self.compute_watts + comm_seconds * self.comm_watts)
    }
}

/// Per-round resource usage of a scheme (from the throughput model).
#[derive(Clone, Copy, Debug)]
pub struct RoundResources {
    /// GPU-busy seconds per round (model compute + compression kernels).
    pub busy_seconds: f64,
    /// Communication-blocked seconds per round.
    pub comm_seconds: f64,
    /// Bytes crossing the network per round, summed over workers.
    pub wire_bytes: f64,
}

impl RoundResources {
    /// Wall-clock seconds per round (no overlap, matching the TTA model).
    pub fn step_seconds(&self) -> f64 {
        self.busy_seconds + self.comm_seconds
    }
}

/// Converts a TTA curve (time axis = `resources.step_seconds()` per round)
/// into a cost-to-accuracy curve in dollars.
pub fn cost_curve(tta: &TtaCurve, resources: RoundResources, cost: &CostModel) -> TtaCurve {
    let step = resources.step_seconds();
    let mut out = TtaCurve::new(format!("{} [$]", tta.label), tta.direction);
    for &(t, m) in &tta.points {
        let rounds = t / step;
        let dollars = cost.dollars(t, rounds * resources.wire_bytes);
        out.points.push((dollars, m));
    }
    out
}

/// Converts a TTA curve into a power-to-accuracy curve in joules.
pub fn energy_curve(tta: &TtaCurve, resources: RoundResources, power: &PowerModel) -> TtaCurve {
    let step = resources.step_seconds();
    let mut out = TtaCurve::new(format!("{} [J]", tta.label), tta.direction);
    for &(t, m) in &tta.points {
        let rounds = t / step;
        let joules = rounds * power.round_joules(resources.busy_seconds, resources.comm_seconds);
        out.points.push((joules, m));
    }
    out
}

/// Dollars to reach `target` (None if never reached).
pub fn cost_to_accuracy(
    tta: &TtaCurve,
    resources: RoundResources,
    cost: &CostModel,
    target: f64,
) -> Option<f64> {
    cost_curve(tta, resources, cost).time_to_target(target)
}

/// Joules to reach `target` (None if never reached).
pub fn power_to_accuracy(
    tta: &TtaCurve,
    resources: RoundResources,
    power: &PowerModel,
    target: f64,
) -> Option<f64> {
    energy_curve(tta, resources, power).time_to_target(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Direction;

    fn curve(step: f64, rounds: usize) -> TtaCurve {
        let mut c = TtaCurve::new("s", Direction::HigherIsBetter);
        for i in 1..=rounds {
            c.push(i as f64 * step, i as f64 / rounds as f64);
        }
        c
    }

    #[test]
    fn cost_accumulates_gpu_time_and_traffic() {
        let cost = CostModel {
            n_gpus: 4,
            gpu_hour_price: 3.6, // 1 cent per gpu-second
            per_gib_price: 1.0,
        };
        // 1 hour, 2 GiB.
        let d = cost.dollars(3600.0, 2.0 * (1u64 << 30) as f64);
        assert!((d - (4.0 * 3.6 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn comm_heavy_schemes_win_more_under_power_than_wall_clock() {
        // Two schemes reach the target in the SAME wall-clock, but one
        // spends its step communicating (cheap watts) and the other
        // computing (expensive watts): PTA must prefer the former.
        let power = PowerModel::a100(4);
        let comm_heavy = RoundResources {
            busy_seconds: 0.1,
            comm_seconds: 0.3,
            wire_bytes: 1e9,
        };
        let compute_heavy = RoundResources {
            busy_seconds: 0.3,
            comm_seconds: 0.1,
            wire_bytes: 1e7,
        };
        let tta = curve(0.4, 10);
        let j_comm = power_to_accuracy(&tta, comm_heavy, &power, 0.9).unwrap();
        let j_comp = power_to_accuracy(&tta, compute_heavy, &power, 0.9).unwrap();
        assert!(j_comm < j_comp, "{j_comm} vs {j_comp}");
    }

    #[test]
    fn egress_pricing_flips_preferences() {
        // Scheme A: slightly faster wall-clock but 10x the traffic.
        // On-prem prefers A; cloud egress pricing prefers B.
        let fast_heavy = RoundResources {
            busy_seconds: 0.10,
            comm_seconds: 0.08,
            wire_bytes: 40e9,
        };
        let slow_light = RoundResources {
            busy_seconds: 0.10,
            comm_seconds: 0.10,
            wire_bytes: 4e9,
        };
        let tta_a = curve(fast_heavy.step_seconds(), 100);
        let tta_b = curve(slow_light.step_seconds(), 100);
        // On-premises: capital amortization only, traffic free.
        let on_prem = CostModel {
            gpu_hour_price: 1.20,
            per_gib_price: 0.0,
            ..CostModel::cloud_a100(4)
        };
        let cloud = CostModel {
            per_gib_price: 0.05,
            ..CostModel::cloud_a100(4)
        };
        let a_prem = cost_to_accuracy(&tta_a, fast_heavy, &on_prem, 0.9).unwrap();
        let b_prem = cost_to_accuracy(&tta_b, slow_light, &on_prem, 0.9).unwrap();
        assert!(a_prem < b_prem, "on-prem should prefer the faster scheme");
        let a_cloud = cost_to_accuracy(&tta_a, fast_heavy, &cloud, 0.9).unwrap();
        let b_cloud = cost_to_accuracy(&tta_b, slow_light, &cloud, 0.9).unwrap();
        assert!(
            b_cloud < a_cloud,
            "egress pricing should prefer the lighter scheme"
        );
    }

    #[test]
    fn unreachable_targets_give_none() {
        let tta = curve(1.0, 3); // metric tops out at 1.0
        let res = RoundResources {
            busy_seconds: 0.5,
            comm_seconds: 0.5,
            wire_bytes: 1e6,
        };
        assert!(cost_to_accuracy(&tta, res, &CostModel::cloud_a100(4), 2.0).is_none());
        assert!(power_to_accuracy(&tta, res, &PowerModel::a100(4), 2.0).is_none());
    }

    #[test]
    fn curves_preserve_metric_values() {
        let tta = curve(0.5, 4);
        let res = RoundResources {
            busy_seconds: 0.3,
            comm_seconds: 0.2,
            wire_bytes: 1e6,
        };
        let cc = cost_curve(&tta, res, &CostModel::cloud_a100(4));
        assert_eq!(cc.points.len(), 4);
        for (orig, conv) in tta.points.iter().zip(&cc.points) {
            assert_eq!(orig.1, conv.1);
        }
        // Monotone cost axis.
        for w in cc.points.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
