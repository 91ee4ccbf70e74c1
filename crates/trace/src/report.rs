//! Text-report exporter: the paper's Table 9-style per-op breakdown.
//!
//! A [`Report`] aggregates a [`Trace`] into per-operation rows (total time,
//! call count, share of the measured total) grouped by [`Phase`], plus
//! counter statistics. This is the measured analogue of the analytic
//! `StepBreakdown` in `gcs-ddp::throughput` — printing both side by side is
//! exactly the paper's methodological point: analytic models and measured
//! profiles routinely disagree, and only the measurement settles it.

use crate::{Phase, Trace};

/// Aggregated statistics for one named operation.
#[derive(Clone, Debug)]
pub struct OpStat {
    /// Step phase the op belongs to.
    pub phase: Phase,
    /// Operation name.
    pub name: &'static str,
    /// Number of recorded spans.
    pub calls: u64,
    /// Summed duration over all spans, nanoseconds.
    pub total_ns: u64,
}

/// Aggregated statistics for one counter.
#[derive(Clone, Debug)]
pub struct CounterStat {
    /// Counter name.
    pub name: &'static str,
    /// Number of samples.
    pub samples: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Mean sample value.
    pub mean: f64,
}

/// A [`Trace`] aggregated for human consumption and assertions.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-op rows, sorted by descending total time.
    pub ops: Vec<OpStat>,
    /// Per-counter rows, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Number of distinct rounds observed across all spans/counters.
    pub rounds: u64,
}

impl Report {
    /// Builds a report from a raw trace.
    pub fn from_trace(trace: &Trace) -> Report {
        let mut ops: Vec<OpStat> = Vec::new();
        for s in &trace.spans {
            match ops
                .iter_mut()
                .find(|o| o.name == s.name && o.phase == s.phase)
            {
                Some(o) => {
                    o.calls += 1;
                    o.total_ns += s.dur_ns;
                }
                None => ops.push(OpStat {
                    phase: s.phase,
                    name: s.name,
                    calls: 1,
                    total_ns: s.dur_ns,
                }),
            }
        }
        ops.sort_by_key(|o| std::cmp::Reverse(o.total_ns));

        let mut counters: Vec<CounterStat> = Vec::new();
        for c in &trace.counters {
            match counters.iter_mut().find(|x| x.name == c.name) {
                Some(x) => {
                    x.samples += 1;
                    x.sum += c.value;
                }
                None => counters.push(CounterStat {
                    name: c.name,
                    samples: 1,
                    sum: c.value,
                    mean: 0.0,
                }),
            }
        }
        for c in &mut counters {
            c.mean = c.sum / c.samples as f64;
        }
        counters.sort_by(|a, b| a.name.cmp(b.name));

        let mut rounds: Vec<u64> = trace
            .spans
            .iter()
            .map(|s| s.round)
            .chain(trace.counters.iter().map(|c| c.round))
            .collect();
        rounds.sort_unstable();
        rounds.dedup();

        Report {
            ops,
            counters,
            rounds: rounds.len() as u64,
        }
    }

    /// Total measured nanoseconds across all ops. Spans are emitted at the
    /// leaves (kernels, collectives), so this sum does not double-count.
    pub fn total_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.total_ns).sum()
    }

    /// Total nanoseconds attributed to `phase`.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.phase == phase)
            .map(|o| o.total_ns)
            .sum()
    }

    /// `phase`'s share of the measured total (0 when nothing was measured).
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.phase_total_ns(phase) as f64 / total as f64
    }

    /// Total nanoseconds for op `name` (summed over phases, should the same
    /// name appear in several).
    pub fn op_total_ns(&self, name: &str) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.name == name)
            .map(|o| o.total_ns)
            .sum()
    }

    /// The ops of one phase, heaviest first — e.g. the compression
    /// components of a PowerSGD round (Table 9's rows).
    pub fn phase_ops(&self, phase: Phase) -> Vec<&OpStat> {
        self.ops.iter().filter(|o| o.phase == phase).collect()
    }

    /// Counter statistics for `name`, if any samples were recorded.
    pub fn counter(&self, name: &str) -> Option<&CounterStat> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Renders the per-op table, phase summary, and counters as text.
    pub fn render(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "measured per-op breakdown ({} ops, {} rounds, total {:.3} ms)\n",
            self.ops.len(),
            self.rounds,
            self.total_ns() as f64 / 1e6
        ));
        out.push_str(&format!(
            "{:<11} {:<28} {:>8} {:>12} {:>8}\n",
            "phase", "op", "calls", "total ms", "share"
        ));
        for o in &self.ops {
            out.push_str(&format!(
                "{:<11} {:<28} {:>8} {:>12.3} {:>7.1}%\n",
                o.phase.as_str(),
                o.name,
                o.calls,
                o.total_ns as f64 / 1e6,
                o.total_ns as f64 / total as f64 * 100.0
            ));
        }
        out.push_str("phase totals:");
        for p in Phase::ALL {
            let ns = self.phase_total_ns(p);
            if ns > 0 {
                out.push_str(&format!(
                    " {}={:.1}%",
                    p.as_str(),
                    ns as f64 / total as f64 * 100.0
                ));
            }
        }
        out.push('\n');
        if !self.counters.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>14} {:>14}\n",
                "counter", "samples", "sum", "mean"
            ));
            for c in &self.counters {
                out.push_str(&format!(
                    "{:<28} {:>8} {:>14.6e} {:>14.6e}\n",
                    c.name, c.samples, c.sum, c.mean
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterRecord, SpanRecord};

    fn span(phase: Phase, name: &'static str, dur_ns: u64, round: u64) -> SpanRecord {
        SpanRecord {
            phase,
            name,
            start_ns: 0,
            dur_ns,
            round,
            tid: 0,
        }
    }

    fn trace() -> Trace {
        Trace {
            spans: vec![
                span(Phase::Compress, "gram_schmidt", 600, 0),
                span(Phase::Compress, "gram_schmidt", 400, 1),
                span(Phase::Compress, "matmul_p", 300, 0),
                span(Phase::Reduce, "ring_all_reduce", 500, 0),
                span(Phase::Compute, "worker_gradients", 200, 1),
            ],
            counters: vec![
                CounterRecord {
                    name: "wire_bytes",
                    value: 100.0,
                    at_ns: 0,
                    round: 0,
                    tid: 0,
                },
                CounterRecord {
                    name: "wire_bytes",
                    value: 300.0,
                    at_ns: 1,
                    round: 1,
                    tid: 0,
                },
            ],
        }
    }

    #[test]
    fn aggregates_ops_and_sorts_by_total() {
        let r = Report::from_trace(&trace());
        assert_eq!(r.ops[0].name, "gram_schmidt");
        assert_eq!(r.ops[0].calls, 2);
        assert_eq!(r.op_total_ns("gram_schmidt"), 1000);
        assert_eq!(r.total_ns(), 2000);
        assert_eq!(r.rounds, 2);
    }

    #[test]
    fn phase_accounting() {
        let r = Report::from_trace(&trace());
        assert_eq!(r.phase_total_ns(Phase::Compress), 1300);
        assert!((r.phase_fraction(Phase::Compress) - 0.65).abs() < 1e-12);
        assert_eq!(r.phase_total_ns(Phase::Optimizer), 0);
        let compress_ops = r.phase_ops(Phase::Compress);
        assert_eq!(compress_ops[0].name, "gram_schmidt");
        assert_eq!(compress_ops[1].name, "matmul_p");
    }

    #[test]
    fn counter_stats() {
        let r = Report::from_trace(&trace());
        let w = r.counter("wire_bytes").unwrap();
        assert_eq!(w.samples, 2);
        assert_eq!(w.sum, 400.0);
        assert_eq!(w.mean, 200.0);
        assert!(r.counter("missing").is_none());
    }

    #[test]
    fn render_contains_rows_and_totals() {
        let r = Report::from_trace(&trace());
        let text = r.render();
        assert!(text.contains("gram_schmidt"));
        assert!(text.contains("phase totals:"));
        assert!(text.contains("compress="));
        assert!(text.contains("wire_bytes"));
    }

    #[test]
    fn empty_trace_renders_without_division_by_zero() {
        let r = Report::from_trace(&Trace::default());
        assert_eq!(r.total_ns(), 0);
        assert_eq!(r.phase_fraction(Phase::Compute), 0.0);
        let _ = r.render();
    }
}
