//! Flow-level network event simulation with max-min fair sharing.
//!
//! Where [`crate::timing`] asserts collective costs, this module *derives*
//! them: a collective is expressed as a set of point-to-point flows (per
//! step), every node has finite egress and ingress capacity, concurrent
//! flows share bottleneck links max-min fairly (progressive filling, the
//! standard fluid model of TCP-fair sharing), and an event loop advances
//! time from one flow completion to the next.
//!
//! The simulator is what makes the paper's scalability argument (§2.1)
//! *checkable* instead of asserted: an incast of `n−1` flows into one
//! receiver completes `n−1×` slower than a single flow, while the ring's
//! uniform one-to-one steps keep every link busy.

/// A point-to-point transfer between two nodes.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Transfer size in bytes.
    pub bytes: f64,
}

/// Result of simulating a set of flows.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Completion time of each flow, seconds, same order as the input. For
    /// an aborted flow this is the *abort* time (the instant the simulator
    /// proved it could never finish), so the report stays finite.
    pub completion: Vec<f64>,
    /// Time at which the last flow completed (the step's makespan).
    pub makespan: f64,
    /// Per-flow abort flag: `true` if the flow was stranded with zero rate
    /// (its path crosses a zero-capacity link). Same order as the input.
    pub aborted: Vec<bool>,
}

impl FlowReport {
    /// Number of flows that could not complete.
    pub fn aborted_count(&self) -> usize {
        self.aborted.iter().filter(|&&a| a).count()
    }
}

/// A network of `n` nodes, each with independent egress and ingress
/// capacity (full-duplex NIC model).
#[derive(Clone, Debug)]
pub struct Network {
    egress: Vec<f64>,
    ingress: Vec<f64>,
}

impl Network {
    /// A homogeneous full-duplex network: every node sends and receives at
    /// `capacity` bytes/s.
    pub fn homogeneous(n: usize, capacity: f64) -> Network {
        Network {
            egress: vec![capacity; n],
            ingress: vec![capacity; n],
        }
    }

    /// Overrides one node's capacities (e.g. a beefier parameter server, a
    /// straggler's slow NIC, or `0.0` for a dead link).
    pub fn with_node_capacity(mut self, node: usize, egress: f64, ingress: f64) -> Network {
        self.egress[node] = egress;
        self.ingress[node] = ingress;
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.egress.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.egress.is_empty()
    }

    /// Max-min fair rates for the given set of active flows under the given
    /// *effective* capacities (progressive filling). A flow crossing a
    /// zero-capacity link freezes at rate 0 — the caller aborts it once no
    /// flow can progress.
    fn fair_rates(egress: &[f64], ingress: &[f64], flows: &[(usize, usize)]) -> Vec<f64> {
        let n = egress.len();
        // Link layout: 0..n egress, n..2n ingress.
        let mut cap: Vec<f64> = egress.iter().chain(ingress.iter()).copied().collect();
        let mut users: Vec<usize> = vec![0; 2 * n];
        for &(s, d) in flows {
            users[s] += 1;
            users[n + d] += 1;
        }
        let mut rate = vec![0.0f64; flows.len()];
        let mut frozen = vec![false; flows.len()];
        let mut remaining = flows.len();
        while remaining > 0 {
            // Bottleneck link: minimal fair share among links with users.
            let mut best_share = f64::INFINITY;
            for l in 0..2 * n {
                if users[l] > 0 {
                    let share = cap[l] / users[l] as f64;
                    if share < best_share {
                        best_share = share;
                    }
                }
            }
            debug_assert!(best_share.is_finite());
            // Freeze every unfrozen flow crossing a link at that share.
            let mut froze_any = false;
            for (i, &(s, d)) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let se = cap[s] / users[s] as f64;
                let si = cap[n + d] / users[n + d] as f64;
                if se <= best_share + 1e-12 || si <= best_share + 1e-12 {
                    rate[i] = best_share;
                    frozen[i] = true;
                    remaining -= 1;
                    froze_any = true;
                    // Remove this flow's usage from its links.
                    cap[s] -= best_share;
                    users[s] -= 1;
                    cap[n + d] -= best_share;
                    users[n + d] -= 1;
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                break;
            }
        }
        rate
    }

    /// Simulates the given flows starting simultaneously at t=0; rates are
    /// recomputed (max-min) after every completion.
    ///
    /// Stranded flows are a *reported* condition, not a panic: once no
    /// active flow can progress (each crosses a zero-capacity link), the
    /// remaining flows are marked aborted at the current time and the report
    /// stays finite — degraded fabrics are data, not crashes.
    ///
    /// An empty flow list is a valid degenerate input (a collective step
    /// with nothing to send) and yields a zero report rather than touching
    /// the rate solver.
    pub fn simulate(&self, flows: &[Flow]) -> FlowReport {
        if flows.is_empty() {
            return FlowReport {
                completion: Vec::new(),
                makespan: 0.0,
                aborted: Vec::new(),
            };
        }
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
        let mut completion = vec![0.0f64; flows.len()];
        let mut aborted = vec![false; flows.len()];
        let mut done: Vec<bool> = remaining.iter().map(|&b| b == 0.0).collect();
        let mut now = 0.0f64;
        loop {
            let active: Vec<usize> = (0..flows.len()).filter(|&i| !done[i]).collect();
            if active.is_empty() {
                break;
            }
            let endpoints: Vec<(usize, usize)> = active
                .iter()
                .map(|&i| (flows[i].src, flows[i].dst))
                .collect();
            let rates = Self::fair_rates(&self.egress, &self.ingress, &endpoints);
            // Earliest completion among active flows.
            let mut dt = f64::INFINITY;
            for (k, &i) in active.iter().enumerate() {
                if rates[k] > 0.0 {
                    dt = dt.min(remaining[i] / rates[k]);
                }
            }
            if !dt.is_finite() {
                // No flow can progress: abort the stranded flows now.
                for &i in &active {
                    done[i] = true;
                    aborted[i] = true;
                    completion[i] = now;
                }
                break;
            }
            now += dt;
            for (k, &i) in active.iter().enumerate() {
                remaining[i] -= rates[k] * dt;
                if remaining[i] <= 1e-6 {
                    remaining[i] = 0.0;
                    done[i] = true;
                    completion[i] = now;
                }
            }
        }
        FlowReport {
            makespan: completion.iter().copied().fold(0.0, f64::max),
            completion,
            aborted,
        }
    }

    /// Simulates a sequence of flow *phases*: phase `k+1` starts only after
    /// phase `k` completes (how a stepwise collective behaves with
    /// synchronization between steps). Returns total time.
    pub fn simulate_phases(&self, phases: &[Vec<Flow>]) -> f64 {
        phases.iter().map(|p| self.simulate(p).makespan).sum()
    }
}

/// Builds the flow phases of a ring all-reduce with `n` workers and
/// `payload` bytes per worker: `2(n−1)` steps, each sending `payload/n` to
/// the next node around the ring.
pub fn ring_all_reduce_phases(n: usize, payload: f64) -> Vec<Vec<Flow>> {
    let seg = payload / n as f64;
    (0..2 * (n - 1))
        .map(|_| {
            (0..n)
                .map(|i| Flow {
                    src: i,
                    dst: (i + 1) % n,
                    bytes: seg,
                })
                .collect()
        })
        .collect()
}

/// Builds the single-phase flow set of an all-gather: every ordered pair
/// exchanges `payload` bytes.
pub fn all_gather_flows(n: usize, payload: f64) -> Vec<Flow> {
    let mut flows = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                flows.push(Flow {
                    src: s,
                    dst: d,
                    bytes: payload,
                });
            }
        }
    }
    flows
}

/// Builds the push phase of parameter-server aggregation: every worker
/// (nodes `1..n`) sends `payload` bytes to the PS (node 0).
pub fn ps_push_flows(n_workers: usize, payload: f64) -> Vec<Flow> {
    (1..=n_workers)
        .map(|w| Flow {
            src: w,
            dst: 0,
            bytes: payload,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn single_flow_runs_at_line_rate() {
        let net = Network::homogeneous(2, 10.0 * GB);
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 10.0 * GB,
        }]);
        assert!((r.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_an_egress_link() {
        let net = Network::homogeneous(3, 10.0 * GB);
        let flows = vec![
            Flow {
                src: 0,
                dst: 1,
                bytes: 10.0 * GB,
            },
            Flow {
                src: 0,
                dst: 2,
                bytes: 10.0 * GB,
            },
        ];
        let r = net.simulate(&flows);
        // Both share node 0's egress: each gets 5 GB/s -> 2 s.
        assert!((r.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn incast_serializes_on_the_receiver() {
        // The §2.1 argument: n-1 flows into one node complete (n-1)x slower.
        let n = 8;
        let net = Network::homogeneous(n, 10.0 * GB);
        let r = net.simulate(&ps_push_flows(n - 1, 10.0 * GB));
        assert!((r.makespan - (n - 1) as f64).abs() < 1e-6);
    }

    #[test]
    fn short_flow_finishes_and_frees_bandwidth() {
        let net = Network::homogeneous(3, 10.0 * GB);
        let flows = vec![
            Flow {
                src: 0,
                dst: 2,
                bytes: 5.0 * GB,
            },
            Flow {
                src: 1,
                dst: 2,
                bytes: 20.0 * GB,
            },
        ];
        let r = net.simulate(&flows);
        // Phase 1: both at 5 GB/s until the short one finishes at t=1
        // (5 GB at 5 GB/s). Phase 2: long flow has 15 GB left at 10 GB/s.
        assert!((r.completion[0] - 1.0).abs() < 1e-6, "{:?}", r);
        assert!((r.completion[1] - 2.5).abs() < 1e-6, "{:?}", r);
    }

    #[test]
    fn ring_all_reduce_matches_closed_form() {
        let n = 4;
        let payload = 8.0 * GB;
        let bw = 10.0 * GB;
        let net = Network::homogeneous(n, bw);
        let t = net.simulate_phases(&ring_all_reduce_phases(n, payload));
        // Closed form: 2(n-1)/n * payload / bw.
        let expect = 2.0 * (n as f64 - 1.0) / n as f64 * payload / bw;
        assert!((t - expect).abs() / expect < 1e-6, "t={t} expect={expect}");
    }

    #[test]
    fn all_gather_makespan_matches_closed_form() {
        let n = 4;
        let payload = 1.0 * GB;
        let bw = 10.0 * GB;
        let net = Network::homogeneous(n, bw);
        let r = net.simulate(&all_gather_flows(n, payload));
        // Every node must receive (n-1) payloads through its ingress.
        let expect = (n as f64 - 1.0) * payload / bw;
        assert!((r.makespan - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn beefy_ps_absorbs_incast() {
        let n = 5;
        let net = Network::homogeneous(n, 10.0 * GB).with_node_capacity(0, 40.0 * GB, 40.0 * GB);
        let r = net.simulate(&ps_push_flows(4, 10.0 * GB));
        // PS ingress 40 GB/s over 4 flows: each gets its full 10 GB/s.
        assert!((r.makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_flow_list_yields_zero_report() {
        // Regression: a degenerate collective step with no flows must return
        // a well-formed zero report, not NaN or a div-by-zero in the solver.
        let net = Network::homogeneous(4, 10.0 * GB);
        let r = net.simulate(&[]);
        assert_eq!(r.makespan, 0.0);
        assert!(r.makespan.is_finite());
        assert!(r.completion.is_empty());
        // Phase sequences containing empty phases stay finite too.
        let t = net.simulate_phases(&[vec![], ring_all_reduce_phases(4, GB)[0].clone(), vec![]]);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn heterogeneous_capacities_shape_completion_times() {
        // Node 1's egress is halved and node 2's quartered: with each flow
        // alone on its links, completion times follow the slow senders.
        let net = Network::homogeneous(4, 10.0 * GB)
            .with_node_capacity(1, 5.0 * GB, 10.0 * GB)
            .with_node_capacity(2, 2.5 * GB, 10.0 * GB);
        let flows = vec![
            Flow {
                src: 0,
                dst: 3,
                bytes: 10.0 * GB,
            },
            Flow {
                src: 1,
                dst: 3,
                bytes: 10.0 * GB,
            },
            Flow {
                src: 2,
                dst: 3,
                bytes: 10.0 * GB,
            },
        ];
        let r = net.simulate(&flows);
        // Max-min: node 2 is frozen at its 2.5 GB/s egress; the remaining
        // 7.5 GB/s of node 3's ingress splits evenly, so flows 0 and 1 run
        // at 3.75 GB/s and finish together at 8/3 s. Flow 2 then finishes
        // its remainder alone at 2.5 GB/s, at exactly 4 s.
        assert!((r.completion[0] - 8.0 / 3.0).abs() < 1e-6, "{:?}", r);
        assert!((r.completion[1] - 8.0 / 3.0).abs() < 1e-6, "{:?}", r);
        assert!((r.completion[2] - 4.0).abs() < 1e-6, "{:?}", r);
        assert!((r.makespan - 4.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flows_complete_immediately() {
        let net = Network::homogeneous(2, GB);
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 0.0,
        }]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.aborted_count(), 0);
    }

    #[test]
    fn capacity_cut_aborts_stranded_flow_finitely() {
        // The sender's link is dead: the flow must abort at once, not hang
        // or panic.
        let net = Network::homogeneous(2, 10.0 * GB).with_node_capacity(0, 0.0, 0.0);
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 10.0 * GB,
        }]);
        assert_eq!(r.aborted, vec![true]);
        assert_eq!(r.aborted_count(), 1);
        assert!(r.makespan.is_finite());
        assert_eq!(r.completion[0], 0.0, "{r:?}");
    }

    #[test]
    fn zero_capacity_link_aborts_at_time_zero_and_counts() {
        let net = Network::homogeneous(3, 10.0 * GB).with_node_capacity(1, 0.0, 0.0);
        let flows = vec![
            Flow {
                src: 0,
                dst: 2,
                bytes: 10.0 * GB,
            },
            Flow {
                src: 1,
                dst: 2,
                bytes: 10.0 * GB,
            },
        ];
        let r = net.simulate(&flows);
        // The healthy flow still completes; the dead-sender flow aborts.
        assert!(!r.aborted[0]);
        assert!((r.completion[0] - 1.0).abs() < 1e-6, "{r:?}");
        assert!(r.aborted[1]);
        assert_eq!(
            r.completion[1], 1.0,
            "stranded flow aborts once nothing else can change: {r:?}"
        );
        assert!(r.makespan.is_finite());
    }

    /// A straggler's slow NIC is visible in the completion times: the
    /// degraded worker finishes last, with the expected max/mean flow skew.
    #[test]
    fn straggler_monitor_sees_injected_degradation() {
        let net = Network::homogeneous(4, 10.0 * GB).with_node_capacity(1, 2.5 * GB, 2.5 * GB);
        let flows = vec![
            Flow {
                src: 0,
                dst: 2,
                bytes: 10.0 * GB,
            },
            Flow {
                src: 1,
                dst: 3,
                bytes: 10.0 * GB,
            },
        ];
        let r = net.simulate(&flows);
        assert_eq!(r.aborted_count(), 0);
        assert!((r.completion[0] - 1.0).abs() < 1e-6, "{r:?}");
        assert!((r.completion[1] - 4.0).abs() < 1e-6, "{r:?}");
        let max = r.completion.iter().copied().fold(0.0, f64::max);
        let skew = max / (r.completion.iter().sum::<f64>() / 2.0);
        // max/mean = 4.0 / 2.5 = 1.6.
        assert!((skew - 1.6).abs() < 1e-6, "skew = {skew}");
    }

    #[test]
    fn zero_capacity_zero_size_flow_stays_finite() {
        // A zero-capacity link carrying a zero-byte flow: nothing needs to
        // move, so the flow completes instantly instead of aborting or
        // dividing 0/0.
        let net = Network::homogeneous(2, GB).with_node_capacity(0, 0.0, 0.0);
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 0.0,
        }]);
        assert_eq!(r.completion, vec![0.0]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.aborted_count(), 0);
        assert!(r.completion.iter().all(|t| t.is_finite()));
    }
}
