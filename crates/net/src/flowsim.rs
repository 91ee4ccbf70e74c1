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
    /// and no future capacity event could revive it (e.g. its only path
    /// crosses a link degraded to zero). Same order as the input.
    pub aborted: Vec<bool>,
}

impl FlowReport {
    /// Number of flows that could not complete.
    pub fn aborted_count(&self) -> usize {
        self.aborted.iter().filter(|&&a| a).count()
    }

    /// True if every flow completed.
    pub fn all_completed(&self) -> bool {
        self.aborted_count() == 0
    }
}

/// A scheduled mid-simulation capacity change on one node's links: at time
/// `at`, the node's egress/ingress capacities become `factor × baseline`.
/// Factors in `(0, 1)` model stragglers (slow NIC, congested ToR port),
/// `0.0` models a dead link, and factors `> 1` model recovery/upgrades.
/// Injected degradation shows in the slowed flows' completion times
/// ([`FlowReport::completion`]) and in the `flowsim/fct_s` histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degradation {
    /// Simulation time (seconds) at which the change takes effect.
    pub at: f64,
    /// Node whose links degrade.
    pub node: usize,
    /// Multiplier on the node's baseline egress capacity.
    pub egress_factor: f64,
    /// Multiplier on the node's baseline ingress capacity.
    pub ingress_factor: f64,
}

impl Degradation {
    /// Symmetric slowdown: both directions scaled by `factor`.
    pub fn slowdown(at: f64, node: usize, factor: f64) -> Degradation {
        Degradation {
            at,
            node,
            egress_factor: factor,
            ingress_factor: factor,
        }
    }

    /// Total link cut: both directions to zero.
    pub fn cut(at: f64, node: usize) -> Degradation {
        Degradation::slowdown(at, node, 0.0)
    }
}

/// Why a [`Degradation`] cannot be admitted into a schedule. Rejecting the
/// bad event *at insertion* is what lets the event loop sort with
/// `f64::total_cmp` and never meet a NaN mid-simulation (the seed sorted
/// with `partial_cmp(..).expect("finite event times")`, which panicked at
/// simulation time — long after the buggy value was constructed, e.g. by a
/// `0/0` in a degraded-link computation).
#[derive(Clone, Debug, PartialEq)]
pub enum FlowSimError {
    /// The event's node id does not exist in this network.
    NodeOutOfRange {
        /// Offending node id.
        node: usize,
        /// Number of nodes in the network.
        len: usize,
    },
    /// The event time is NaN, infinite, or negative.
    BadEventTime {
        /// Offending time.
        at: f64,
    },
    /// A capacity factor is NaN, infinite, or negative.
    BadFactor {
        /// Offending factor (egress or ingress).
        factor: f64,
    },
}

impl std::fmt::Display for FlowSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowSimError::NodeOutOfRange { node, len } => {
                write!(
                    f,
                    "degradation: node {node} out of range (network has {len})"
                )
            }
            FlowSimError::BadEventTime { at } => {
                write!(f, "degradation: bad time {at} (must be finite and >= 0)")
            }
            FlowSimError::BadFactor { factor } => {
                write!(
                    f,
                    "degradation: bad factor {factor} (must be finite and >= 0)"
                )
            }
        }
    }
}

impl std::error::Error for FlowSimError {}

/// A network of `n` nodes, each with independent egress and ingress
/// capacity (full-duplex NIC model), plus an optional schedule of mid-run
/// capacity changes ([`Degradation`]).
#[derive(Clone, Debug)]
pub struct Network {
    egress: Vec<f64>,
    ingress: Vec<f64>,
    degradations: Vec<Degradation>,
}

impl Network {
    /// A homogeneous full-duplex network: every node sends and receives at
    /// `capacity` bytes/s.
    pub fn homogeneous(n: usize, capacity: f64) -> Network {
        Network {
            egress: vec![capacity; n],
            ingress: vec![capacity; n],
            degradations: Vec::new(),
        }
    }

    /// Overrides one node's capacities (e.g. a beefier parameter server).
    pub fn with_node_capacity(mut self, node: usize, egress: f64, ingress: f64) -> Network {
        self.egress[node] = egress;
        self.ingress[node] = ingress;
        self
    }

    /// Schedules a mid-simulation capacity change. Factors apply to the
    /// node's *baseline* capacities (piecewise-constant, last event wins),
    /// so two successive events don't compound.
    ///
    /// Rejects malformed events with a typed [`FlowSimError`]: out-of-range
    /// node, non-finite/negative time (NaN from a `0/0` in a degraded-link
    /// computation lands here, at insertion, instead of panicking the event
    /// sort mid-simulation), or non-finite/negative factor.
    pub fn try_with_degradation(mut self, d: Degradation) -> Result<Network, FlowSimError> {
        if d.node >= self.len() {
            return Err(FlowSimError::NodeOutOfRange {
                node: d.node,
                len: self.len(),
            });
        }
        if !d.at.is_finite() || d.at < 0.0 {
            return Err(FlowSimError::BadEventTime { at: d.at });
        }
        for factor in [d.egress_factor, d.ingress_factor] {
            if !factor.is_finite() || factor < 0.0 {
                return Err(FlowSimError::BadFactor { factor });
            }
        }
        self.degradations.push(d);
        Ok(self)
    }

    /// Panicking convenience over [`Network::try_with_degradation`] for
    /// builder chains whose schedules are statically known good.
    ///
    /// # Panics
    /// Panics on an out-of-range node, a non-finite/negative factor, or a
    /// non-finite/negative time — malformed schedules are caller bugs.
    pub fn with_degradation(self, d: Degradation) -> Network {
        match self.try_with_degradation(d) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
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
    /// zero-capacity link freezes at rate 0 — the caller decides whether a
    /// future [`Degradation`] can revive it or the flow must abort.
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
    /// recomputed (max-min) after every completion *and every scheduled
    /// [`Degradation`]* (piecewise-constant capacities).
    ///
    /// The seed version of this loop asserted `dt.is_finite()` and panicked
    /// when flows were stranded. Stranded flows are now a *reported*
    /// condition: a flow with zero rate and no future capacity event that
    /// could revive it is marked aborted at the current time, the
    /// `faults/flow_aborted_total` counter is bumped, and the report stays
    /// finite — degraded fabrics are data, not crashes.
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
        // Effective capacities evolve as degradation events fire.
        let mut egress = self.egress.clone();
        let mut ingress = self.ingress.clone();
        let mut events = self.degradations.clone();
        // Total order: insertion validation guarantees finite times, and
        // `total_cmp` cannot panic even if that invariant is ever violated.
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        let mut next_event = 0usize;

        let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
        let mut completion = vec![0.0f64; flows.len()];
        let mut aborted = vec![false; flows.len()];
        let mut done: Vec<bool> = remaining.iter().map(|&b| b == 0.0).collect();
        let mut now = 0.0f64;
        loop {
            // Fire every event due at (or before) the current time.
            while next_event < events.len() && events[next_event].at <= now + 1e-12 {
                let d = events[next_event];
                egress[d.node] = self.egress[d.node] * d.egress_factor;
                ingress[d.node] = self.ingress[d.node] * d.ingress_factor;
                next_event += 1;
            }
            let active: Vec<usize> = (0..flows.len()).filter(|&i| !done[i]).collect();
            if active.is_empty() {
                break;
            }
            let endpoints: Vec<(usize, usize)> = active
                .iter()
                .map(|&i| (flows[i].src, flows[i].dst))
                .collect();
            let rates = Self::fair_rates(&egress, &ingress, &endpoints);
            // Earliest completion among active flows.
            let mut dt = f64::INFINITY;
            for (k, &i) in active.iter().enumerate() {
                if rates[k] > 0.0 {
                    dt = dt.min(remaining[i] / rates[k]);
                }
            }
            let horizon = events.get(next_event).map(|e| e.at);
            if !dt.is_finite() && horizon.is_none() {
                // No flow can progress and no event can change that: abort
                // the stranded flows at the current instant.
                for &i in &active {
                    done[i] = true;
                    aborted[i] = true;
                    completion[i] = now;
                }
                break;
            }
            // Advance to the earlier of next completion and next event.
            let step = match horizon {
                Some(t) if t - now < dt => (t - now).max(0.0),
                _ => dt,
            };
            now += step;
            for (k, &i) in active.iter().enumerate() {
                remaining[i] -= rates[k] * step;
                if remaining[i] <= 1e-6 {
                    remaining[i] = 0.0;
                    done[i] = true;
                    completion[i] = now;
                }
            }
        }
        let n_aborted = aborted.iter().filter(|&&a| a).count();
        if n_aborted > 0 {
            gcs_metrics::counter_add("faults/flow_aborted_total", n_aborted as f64);
        }
        for (i, &t) in completion.iter().enumerate() {
            if !aborted[i] {
                gcs_metrics::observe("flowsim/fct_s", t);
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
    fn simulate_captures_flow_completion_metrics() {
        let net = Network::homogeneous(3, 10.0 * GB);
        let flows = ps_push_flows(2, 10.0 * GB);
        let ((), reg) = gcs_metrics::with_capture(|| {
            net.simulate(&flows);
        });
        if !gcs_metrics::is_captured() {
            return;
        }
        let h = reg.hist("flowsim/fct_s").unwrap();
        assert_eq!(h.count(), 2);
        // Both flows share the receiver ingress: each completes at 2 s.
        assert!((h.max().unwrap() - 2.0).abs() < 1e-6);
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
        assert!(r.all_completed());
    }

    #[test]
    fn mid_simulation_slowdown_stretches_completion() {
        // 10 GB at 10 GB/s would finish at t=1; halving the sender's egress
        // at t=0.5 leaves 5 GB to move at 5 GB/s -> finish at 1.5 s.
        let net =
            Network::homogeneous(2, 10.0 * GB).with_degradation(Degradation::slowdown(0.5, 0, 0.5));
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 10.0 * GB,
        }]);
        assert!(r.all_completed());
        assert!((r.makespan - 1.5).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn capacity_cut_aborts_stranded_flow_finitely() {
        // The sender's link dies at t=0.5 with half the bytes still queued:
        // the flow must abort *at* 0.5, not hang or panic.
        let net = Network::homogeneous(2, 10.0 * GB).with_degradation(Degradation::cut(0.5, 0));
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 10.0 * GB,
        }]);
        assert_eq!(r.aborted, vec![true]);
        assert_eq!(r.aborted_count(), 1);
        assert!(r.makespan.is_finite());
        assert!((r.completion[0] - 0.5).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn zero_capacity_link_aborts_at_time_zero_and_counts() {
        let net = Network::homogeneous(3, 10.0 * GB).with_degradation(Degradation::cut(0.0, 1));
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
        let (r, reg) = gcs_metrics::with_capture(|| net.simulate(&flows));
        // The healthy flow still completes; the dead-sender flow aborts at 0.
        assert!(!r.aborted[0]);
        assert!((r.completion[0] - 1.0).abs() < 1e-6, "{r:?}");
        assert!(r.aborted[1]);
        assert_eq!(
            r.completion[1], 1.0,
            "stranded flow aborts once nothing else can change: {r:?}"
        );
        assert!(r.makespan.is_finite());
        if gcs_metrics::is_captured() {
            assert_eq!(reg.counter("faults/flow_aborted_total"), Some(1.0));
        }
    }

    #[test]
    fn degradation_recovery_revives_a_stalled_flow() {
        // Link dies at 0.2 and comes back at 0.7: 2 GB moved, 0.5 s stall,
        // then the remaining 8 GB at line rate -> 0.7 + 0.8 = 1.5 s.
        let net = Network::homogeneous(2, 10.0 * GB)
            .with_degradation(Degradation::cut(0.2, 0))
            .with_degradation(Degradation::slowdown(0.7, 0, 1.0));
        let r = net.simulate(&[Flow {
            src: 0,
            dst: 1,
            bytes: 10.0 * GB,
        }]);
        assert!(r.all_completed(), "{r:?}");
        assert!((r.makespan - 1.5).abs() < 1e-6, "{r:?}");
    }

    /// End-to-end: an injected straggler slowdown in the flow simulator is
    /// visible in the completion times — the degraded worker finishes last,
    /// with the expected max/mean flow skew.
    #[test]
    fn straggler_monitor_sees_injected_degradation() {
        let net = Network::homogeneous(4, 10.0 * GB)
            .with_degradation(Degradation::slowdown(0.0, 1, 0.25));
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
        assert!(r.all_completed());
        assert!((r.completion[0] - 1.0).abs() < 1e-6, "{r:?}");
        assert!((r.completion[1] - 4.0).abs() < 1e-6, "{r:?}");
        let max = r.completion.iter().copied().fold(0.0, f64::max);
        let skew = max / (r.completion.iter().sum::<f64>() / 2.0);
        // max/mean = 4.0 / 2.5 = 1.6.
        assert!((skew - 1.6).abs() < 1e-6, "skew = {skew}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degradation_rejects_bad_node() {
        let _ = Network::homogeneous(2, GB).with_degradation(Degradation::cut(0.0, 5));
    }

    #[test]
    fn try_with_degradation_returns_typed_errors() {
        let net = || Network::homogeneous(2, GB);
        assert_eq!(
            net()
                .try_with_degradation(Degradation::cut(0.0, 5))
                .unwrap_err(),
            FlowSimError::NodeOutOfRange { node: 5, len: 2 }
        );
        match net().try_with_degradation(Degradation::cut(f64::NAN, 0)) {
            Err(FlowSimError::BadEventTime { at }) => assert!(at.is_nan()),
            other => panic!("NaN time admitted: {other:?}"),
        }
        assert_eq!(
            net()
                .try_with_degradation(Degradation::cut(-1.0, 0))
                .unwrap_err(),
            FlowSimError::BadEventTime { at: -1.0 }
        );
        match net().try_with_degradation(Degradation::slowdown(0.0, 0, f64::NAN)) {
            Err(FlowSimError::BadFactor { factor }) => assert!(factor.is_nan()),
            other => panic!("NaN factor admitted: {other:?}"),
        }
        // The seed's asserts let +inf through (`inf >= 0.0` holds); the
        // typed path rejects every non-finite factor.
        assert_eq!(
            net()
                .try_with_degradation(Degradation::slowdown(0.0, 0, f64::INFINITY))
                .unwrap_err(),
            FlowSimError::BadFactor {
                factor: f64::INFINITY
            }
        );
        // A good event is admitted and the error type renders usefully.
        assert!(net().try_with_degradation(Degradation::cut(1.0, 1)).is_ok());
        let msg = FlowSimError::BadEventTime { at: f64::NAN }.to_string();
        assert!(msg.contains("bad time"), "{msg}");
    }

    #[test]
    fn zero_capacity_zero_size_flow_stays_finite() {
        // Degenerate corner the ISSUE pins: a link cut to zero capacity at
        // t=0 carrying a zero-byte flow. Nothing needs to move, so the flow
        // completes instantly instead of aborting or dividing 0/0 into the
        // event queue.
        let net = Network::homogeneous(2, GB).with_degradation(Degradation::cut(0.0, 0));
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
