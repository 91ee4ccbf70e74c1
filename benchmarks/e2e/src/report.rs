//! The metric catalogue and the shapes a run is reported in: the one-line
//! result the driver reads, the `name unit value n=` lines a person reads,
//! and the `out/<workload>.json` record `compare` reads.

use gcs_metrics::Json;

use crate::env::Environment;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A catalogue entry: `BENCHMARK.json` lists exactly these, in this order.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics `BENCHMARK.json` lists: measured untraced, defined
/// (and never zero) on every workload, gated by a relative bound. The two
/// timings read each kind of round at its calm pace (the lower decile of its
/// latencies, see `workloads::CALM_PERCENTILE`): the only timings that repeat
/// on a box whose speed its neighbours set.
pub const END_TO_END: &[MetricDef] = &[
    def("calm_rounds_per_s", "1/s", Higher),
    def("calm_round_ms", "ms", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("setup_s", "s", Lower),
];

/// End-to-end metrics `BENCHMARK.json` does not list. The first three are the
/// plain timings over every timed round: what a stopwatch reads, and what the
/// driver refused as a gate — over ten runs of one binary their quartiles lie
/// 9 to 21 % of the median apart (the tail up to 68 %) whenever the box's
/// neighbours are busy. They are still reported and still judged by
/// `compare`, which answers a wide spread with *unresolved*. Of the other
/// three one is zero on a healthy run, two exist on two workloads each, and
/// none is judged by a relative bound; `compare` gates them by their own
/// rules (see `compare::EXACT_RULES`).
pub const UNLISTED_END_TO_END: &[MetricDef] = &[
    def("rounds_per_s", "1/s", Higher),
    def("round_p50_ms", "ms", Lower),
    def("round_p95_ms", "ms", Lower),
    def("utility_vs_fp16", "ratio", Higher),
    def("max_rate_ok_rps", "1/s", Higher),
    def("failed_share", "ratio", Lower),
];

/// Per-layer metrics from the traced run. A metric reads 0 on a workload
/// that does not run its layer.
pub const PER_LAYER: &[MetricDef] = &[
    // gcs-tensor kernels at the workload's gradient size.
    def("tensor.rht_forward_ns_per_elem", "ns", Lower),
    def("tensor.rht_inverse_ns_per_elem", "ns", Lower),
    def("tensor.topk_select_ns_per_elem", "ns", Lower),
    def("tensor.quantize_pack_ns_per_elem", "ns", Lower),
    def("tensor.add_saturating_ns_per_elem", "ns", Lower),
    def("tensor.orthonormalize_us", "us", Lower),
    def("tensor.matmul_ms", "ms", Lower),
    def("tensor.f16_roundtrip_ns_per_elem", "ns", Lower),
    // gcs-core: one aggregation round per scheme.
    def("core.fp16.round_ms", "ms", Lower),
    def("core.fp16.allocs_per_round", "count", Lower),
    def("core.fp16.bits_per_coord", "bits", Lower),
    def("core.fp16.vnmse", "ratio", Lower),
    def("core.topk.round_ms", "ms", Lower),
    def("core.topk.allocs_per_round", "count", Lower),
    def("core.topk.bits_per_coord", "bits", Lower),
    def("core.topk.vnmse", "ratio", Lower),
    def("core.topkc.round_ms", "ms", Lower),
    def("core.topkc.allocs_per_round", "count", Lower),
    def("core.topkc.bits_per_coord", "bits", Lower),
    def("core.topkc.vnmse", "ratio", Lower),
    def("core.thc_wide.round_ms", "ms", Lower),
    def("core.thc_wide.allocs_per_round", "count", Lower),
    def("core.thc_wide.bits_per_coord", "bits", Lower),
    def("core.thc_wide.vnmse", "ratio", Lower),
    def("core.thc_sat.round_ms", "ms", Lower),
    def("core.thc_sat.allocs_per_round", "count", Lower),
    def("core.thc_sat.bits_per_coord", "bits", Lower),
    def("core.thc_sat.vnmse", "ratio", Lower),
    def("core.powersgd.round_ms", "ms", Lower),
    def("core.powersgd.allocs_per_round", "count", Lower),
    def("core.powersgd.bits_per_coord", "bits", Lower),
    def("core.powersgd.vnmse", "ratio", Lower),
    // gcs-collectives, in memory and over loopback TCP.
    def("collectives.mem_ring_ns_per_elem", "ns", Lower),
    def("collectives.mem_all_gather_ns_per_elem", "ns", Lower),
    def("collectives.tcp_encode_ns_per_elem", "ns", Lower),
    def("collectives.tcp_decode_ns_per_elem", "ns", Lower),
    def("collectives.tcp_frame_rtt_us", "us", Lower),
    def("collectives.tcp_oneway_mb_per_s", "MiB/s", Higher),
    def("collectives.tcp_rank_skew_us", "us", Lower),
    def("collectives.tcp_wire_bytes_per_round", "bytes", Lower),
    def("collectives.tcp_allocs_per_round", "count", Lower),
    def("collectives.tcp_mesh_setup_ms", "ms", Lower),
    // gcs-nn.
    def("nn.train_batch_us", "us", Lower),
    def("nn.fwd_bwd_ms", "ms", Lower),
    def("nn.optimizer_step_us", "us", Lower),
    def("nn.evaluate_ms", "ms", Lower),
    def("nn.allocs_per_fwd_bwd", "count", Lower),
    // gcs-ddp: the replica of one Trainer round, and what the paper gates on.
    def("ddp.round_ms", "ms", Lower),
    def("ddp.compute_share", "ratio", Lower),
    def("ddp.aggregate_share", "ratio", Lower),
    def("ddp.optimizer_share", "ratio", Lower),
    def("ddp.eval_share", "ratio", Lower),
    def("ddp.residual_share", "ratio", Lower),
    def("ddp.plan_us", "us", Lower),
    def("ddp.rounds_to_target.fp16", "count", Lower),
    def("ddp.rounds_to_target.topkc", "count", Lower),
    def("ddp.rounds_to_target.thc_sat", "count", Lower),
    def("ddp.rounds_to_target.powersgd", "count", Lower),
    def("ddp.utility_vs_fp16", "ratio", Higher),
    // gcs-aggd: client calls, tenant state, protocol, scrape, rate sweep.
    def("aggd.connect_ms", "ms", Lower),
    def("aggd.submit_rtt_us", "us", Lower),
    def("aggd.fetch_rtt_us", "us", Lower),
    def("aggd.state_submit_us", "us", Lower),
    def("aggd.state_fold_ms", "ms", Lower),
    def("aggd.state_fetch_us", "us", Lower),
    def("aggd.proto_encode_ns_per_elem", "ns", Lower),
    def("aggd.proto_decode_ns_per_elem", "ns", Lower),
    def("aggd.scrape_ms", "ms", Lower),
    def("aggd.scrape_bytes", "bytes", Lower),
    def("aggd.shard_jobs_total", "count", Lower),
    def("aggd.rejects_total", "count", Lower),
    def("aggd.rate0_p50_ms", "ms", Lower),
    def("aggd.rate0_tail_ms", "ms", Lower),
    def("aggd.rate1_p50_ms", "ms", Lower),
    def("aggd.rate1_tail_ms", "ms", Lower),
    def("aggd.rate2_p50_ms", "ms", Lower),
    def("aggd.rate2_tail_ms", "ms", Lower),
    def("aggd.rate3_p50_ms", "ms", Lower),
    def("aggd.rate3_tail_ms", "ms", Lower),
    def("aggd.max_rate_ok_rps", "1/s", Higher),
    // The process and the load generator themselves.
    def("proc.cpu_share", "ratio", Lower),
    def("proc.sys_share", "ratio", Lower),
    def("loadgen.late_p95_ms", "ms", Lower),
    def("loadgen.offered_rps", "1/s", Higher),
    def("loadgen.completed", "count", Higher),
    def("loadgen.failed_share", "ratio", Lower),
    def("trace.overhead_share", "ratio", Lower),
];

/// Every metric a run of this mode may record.
fn catalogue(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    let (listed, exact): (_, &[MetricDef]) = if traced {
        (PER_LAYER, &[])
    } else {
        (END_TO_END, UNLISTED_END_TO_END)
    };
    listed.iter().chain(exact)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (1 for a count or a single timing).
    pub n: usize,
}

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (values compared), shown either way.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered (rounds).
    pub attempted: u64,
    /// Operations that failed, were refused fatally, or went unanswered.
    pub failed: u64,
    /// Measured metrics: the end-to-end set untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Run facts for the record: round counts, input checksum, fixed ids,
    /// informational tails (p99 where the sample supports it).
    pub info: Vec<(String, Json)>,
    /// Spans of the traced run (empty untraced).
    pub trace: gcs_trace::Trace,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            n,
        });
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Records a run fact.
    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn value_of(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Validates the metric set against the catalogue: nothing outside it,
    /// every end-to-end metric present and non-zero when untraced.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        for m in &self.metrics {
            if !catalogue(traced).any(|d| d.name == m.name) {
                return Err(format!("metric {} is not in the catalogue", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
        }
        if !traced {
            for d in END_TO_END {
                match self.value_of(d.name) {
                    Some(m) if m.value > 0.0 => {}
                    Some(m) => return Err(format!("{} = {} must be positive", d.name, m.value)),
                    None => return Err(format!("end-to-end metric {} missing", d.name)),
                }
            }
        }
        Ok(())
    }

    /// The one-line result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (everything `BENCHMARK.json` lists for this mode; an
    /// unexercised layer reads 0).
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|d| {
                let value = self.value_of(d.name).map_or(0.0, |m| m.value);
                (
                    d.name.to_string(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .render()
    }

    /// `name unit value n=<samples>` lines plus one line per check.
    pub fn human_lines(&self, traced: bool) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = catalogue(traced)
                .find(|d| d.name == m.name)
                .map_or("?", |d| d.unit);
            out.push_str(&format!("{} {} {} n={}\n", m.name, unit, m.value, m.n));
        }
        for c in &self.checks {
            let mark = if c.ok { "ok" } else { "FAIL" };
            out.push_str(&format!("check {mark} {}: {}\n", c.name, c.detail));
        }
        out
    }

    /// The `out/<workload>.json` record.
    pub fn record(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        env: &Environment,
    ) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("n".into(), Json::Num(m.n as f64)),
                    ]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::Object(vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("ok".into(), Json::Bool(c.ok)),
                    ("detail".into(), Json::Str(c.detail.clone())),
                ])
            })
            .collect();
        Json::Object(vec![
            ("schema".into(), Json::Str(RECORD_SCHEMA.into())),
            ("workload".into(), Json::Str(workload.into())),
            ("traced".into(), Json::Bool(traced)),
            // Seeds are u64; JSON numbers are f64, so keep every digit.
            ("seed".into(), Json::Str(seed.to_string())),
            ("seconds".into(), Json::Num(seconds)),
            ("env".into(), env.to_json()),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
            ("checks".into(), Json::Array(checks)),
            ("info".into(), Json::Object(self.info.clone())),
        ])
    }
}

/// Schema tag of `out/<workload>.json` records.
pub const RECORD_SCHEMA: &str = "gcs-e2e/1";

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced_outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.metric(d.name, 1.5, 10);
        }
        o
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END
            .iter()
            .chain(UNLISTED_END_TO_END)
            .chain(PER_LAYER)
        {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue is
    /// what the program prints. They must list the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let catalogue = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
        // The driver's bounds are capped at 25 % and never tighter than
        // `compare`'s.
        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let (_, ours) = crate::compare::BOUNDS
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap();
            let drivers = m.get("bound").and_then(Json::as_num).unwrap();
            assert!(drivers >= *ours && drivers <= 0.25, "{name}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::LISTED
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(crate::workloads::REFERENCE_SECONDS)
        );
    }

    #[test]
    fn result_line_round_trips_through_json_with_exact_keys() {
        let mut o = untraced_outcome();
        // Reported, but not listed in BENCHMARK.json: stays out of the line.
        o.metric("failed_share", 0.0, 10);
        o.validate(false).unwrap();
        let parsed = Json::parse(&o.result_line(false)).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_num(), Some(1.5));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn traced_line_lists_the_whole_catalogue_with_zero_for_idle_layers() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metric("nn.fwd_bwd_ms", 8.8, 100);
        o.validate(true).unwrap();
        let parsed = Json::parse(&o.result_line(true)).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .get("nn.fwd_bwd_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(8.8)
        );
        assert_eq!(
            metrics
                .get("aggd.scrape_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(0.0)
        );
    }

    #[test]
    fn validate_rejects_unknown_zero_and_missing_metrics() {
        let mut o = untraced_outcome();
        o.metric("made_up", 1.0, 1);
        assert!(o.validate(false).is_err());
        let mut z = untraced_outcome();
        z.metrics[0].value = 0.0;
        assert!(z.validate(false).is_err());
        let mut m = untraced_outcome();
        m.metrics.pop();
        assert!(m.validate(false).is_err());
    }

    #[test]
    fn failed_check_or_failed_round_makes_the_run_incorrect() {
        let mut o = untraced_outcome();
        assert!(o.correct());
        o.check("twin", false, "a != b".into());
        assert!(!o.correct());
        let mut f = untraced_outcome();
        f.failed = 1;
        assert!(!f.correct());
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut o = untraced_outcome();
        o.check("reaches target", true, "fp16 at round 45".into());
        o.note("rounds", Json::Num(448.0));
        let env = Environment {
            nproc: 2,
            t: 2,
            cpu: 1,
            gcs_threads: 1,
            avx2: true,
        };
        let rec = o.record("train_vgg", u64::MAX, 12.0, false, &env);
        let parsed = Json::parse(&rec.render_pretty()).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(
            parsed.get("seed").unwrap().as_str(),
            Some("18446744073709551615")
        );
        assert_eq!(
            parsed.get("env").unwrap().get("T").unwrap().as_num(),
            Some(2.0)
        );
    }
}
