//! Property tests for the network models: conservation laws, fairness, and
//! agreement between the closed forms and the flow-level simulator.

use gcs_netsim::flowsim::{all_gather_flows, ring_all_reduce_phases, Degradation, Flow, Network};
use gcs_netsim::{ClusterSpec, Collective, HierarchicalSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flows_never_finish_faster_than_line_rate(
        n in 2usize..8,
        bytes in prop::collection::vec(1e6f64..1e10, 1..10),
        bw in 1e9f64..1e11,
    ) {
        let net = Network::homogeneous(n, bw);
        let flows: Vec<Flow> = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| Flow {
                src: i % n,
                dst: (i + 1) % n,
                bytes: b,
            })
            .collect();
        let report = net.simulate(&flows);
        for (f, &t) in flows.iter().zip(&report.completion) {
            // No flow can beat its size over an uncontended link.
            prop_assert!(t >= f.bytes / bw - 1e-9, "flow finished impossibly fast");
        }
        prop_assert!(report.makespan >= report.completion.iter().cloned().fold(0.0, f64::max) - 1e-9);
    }

    #[test]
    fn makespan_bounded_by_serialization(
        n in 2usize..6,
        k in 1usize..8,
        bw in 1e9f64..1e10,
    ) {
        // k equal flows into one receiver: makespan exactly k * (size/bw).
        let net = Network::homogeneous(n + 1, bw);
        let size = 1e9;
        let flows: Vec<Flow> = (0..k)
            .map(|i| Flow {
                src: 1 + (i % n),
                dst: 0,
                bytes: size,
            })
            .collect();
        let report = net.simulate(&flows);
        let per_src = flows.iter().filter(|f| f.src == 1).count() as f64;
        let lower = (k as f64 * size / bw).max(per_src * size / bw);
        prop_assert!((report.makespan - lower).abs() / lower < 1e-6,
            "makespan {} vs serialization bound {}", report.makespan, lower);
    }

    #[test]
    fn ring_flowsim_matches_closed_form_for_any_n(
        n in 2usize..9,
        payload in 1e6f64..1e10,
        bw in 1e9f64..1e11,
    ) {
        let net = Network::homogeneous(n, bw);
        let t = net.simulate_phases(&ring_all_reduce_phases(n, payload));
        let expect = 2.0 * (n as f64 - 1.0) / n as f64 * payload / bw;
        prop_assert!((t - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn all_gather_flowsim_matches_closed_form(
        n in 2usize..7,
        payload in 1e6f64..1e9,
    ) {
        let bw = 1e10;
        let net = Network::homogeneous(n, bw);
        let t = net.simulate(&all_gather_flows(n, payload)).makespan;
        let expect = (n as f64 - 1.0) * payload / bw;
        prop_assert!((t - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn collective_times_scale_linearly_in_payload(
        coll_idx in 0usize..6,
        payload in 1e6f64..1e10,
        scale in 2.0f64..10.0,
    ) {
        let colls = [
            Collective::RingAllReduce,
            Collective::TreeAllReduce,
            Collective::AllGather,
            Collective::ReduceScatter,
            Collective::ParameterServer,
            Collective::Broadcast,
        ];
        let c = ClusterSpec {
            alpha: 0.0, // isolate the bandwidth term
            ..ClusterSpec::paper_testbed()
        };
        let coll = colls[coll_idx];
        let t1 = c.collective_seconds(coll, payload);
        let t2 = c.collective_seconds(coll, payload * scale);
        prop_assert!((t2 / t1 - scale).abs() < 1e-6, "{coll:?} not linear");
    }

    #[test]
    fn degraded_capacity_is_still_max_min_fair(
        n in 3usize..7,
        factor in 0.1f64..0.9,
        bytes in 1e8f64..1e10,
    ) {
        // Cut one sender's egress by `factor` from t=0; all flows target one
        // receiver. Max-min fairness must hold under the degraded capacity:
        // nobody beats line rate on their (possibly degraded) egress, the
        // receiver's ingress is never oversubscribed, and completions are
        // monotone in effective sender capacity.
        let bw = 1e10;
        let net = Network::homogeneous(n, bw)
            .try_with_degradation(Degradation::slowdown(0.0, 0, factor)).expect("valid degradation");
        let flows: Vec<Flow> = (0..n - 1)
            .map(|s| Flow { src: s, dst: n - 1, bytes })
            .collect();
        let report = net.simulate(&flows);
        prop_assert!(report.all_completed());
        // Line-rate bound per sender under its effective egress.
        prop_assert!(report.completion[0] >= bytes / (bw * factor) - 1e-9);
        for t in &report.completion[1..] {
            prop_assert!(*t >= bytes / bw - 1e-9);
        }
        // Receiver ingress conservation: total bytes through one ingress
        // link cannot move faster than the link.
        let total = bytes * (n - 1) as f64;
        prop_assert!(report.makespan >= total / bw - 1e-6);
        // The degraded sender never finishes before an undegraded one.
        let healthy_max = report.completion[1..].iter().cloned().fold(0.0, f64::max);
        prop_assert!(report.completion[0] >= healthy_max - 1e-9);
    }

    #[test]
    fn zero_capacity_always_aborts_finitely(
        n in 2usize..6,
        cut_at in 0.0f64..2.0,
        bytes in 1e9f64..1e11,
    ) {
        // Whatever the cut time and flow size, a dead egress either lets the
        // flow finish first or aborts it at exactly the stranding instant —
        // the report is always finite and the abort flag is always honest.
        let bw = 1e9;
        let net = Network::homogeneous(n, bw)
            .try_with_degradation(Degradation::cut(cut_at, 0)).expect("valid degradation");
        let flows = vec![Flow { src: 0, dst: n - 1, bytes }];
        let report = net.simulate(&flows);
        prop_assert!(report.makespan.is_finite());
        prop_assert!(report.completion[0].is_finite());
        let unimpeded = bytes / bw;
        if unimpeded <= cut_at + 1e-9 {
            prop_assert!(report.all_completed(), "{report:?}");
        } else {
            prop_assert!(report.aborted[0], "{report:?}");
            prop_assert!((report.completion[0] - cut_at).abs() < 1e-9, "{report:?}");
        }
    }

    #[test]
    fn hierarchical_time_monotone_in_payload_and_gpus(
        payload in 1e6f64..1e10,
        gpus in 1usize..9,
    ) {
        let h = HierarchicalSpec {
            gpus_per_node: gpus,
            ..HierarchicalSpec::paper_testbed()
        };
        let t1 = h.ring_all_reduce_seconds(payload);
        let t2 = h.ring_all_reduce_seconds(payload * 2.0);
        prop_assert!(t2 > t1);
        prop_assert!(t1 > 0.0);
    }
}
