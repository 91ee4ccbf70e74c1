//! The metric registry: named counters, gauges, histograms, and time series,
//! plus the Prometheus exporter.
//!
//! Naming convention (slash-separated, lowercase): `collective/<op>/...`,
//! `scheme/<family>/...`, `train/...`, `flowsim/...`, `throughput/...`.
//! Exporters sanitize names for their target format; the registry itself
//! accepts any string.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::series::TimeSeries;

/// A snapshot-able collection of named metrics.
///
/// All maps are `BTreeMap` so every export and iteration order is
/// deterministic — diffs of two exports are meaningful.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// Adds `v` to the monotonically growing counter `name`.
    pub fn counter_add(&mut self, name: &str, v: f64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Sets gauge `name` to its latest value `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Records sample `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Appends `(round, v)` to time series `name`.
    pub fn series_push(&mut self, name: &str, round: u64, v: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.push(round, v);
        } else {
            let mut s = TimeSeries::default();
            s.push(round, v);
            self.series.insert(name.to_string(), s);
        }
    }

    /// Counter value, `None` if never incremented.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, `None` if never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Time series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All time series, sorted by name.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.series.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s value,
    /// histograms merge, series points append in `other`'s order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.counter_add(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauge_set(k, v);
        }
        for (k, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(k) {
                mine.merge(h);
            } else {
                self.hists.insert(k.clone(), h.clone());
            }
        }
        for (k, s) in &other.series {
            for (round, v) in s.iter() {
                self.series_push(k, round, v);
            }
        }
    }

    /// Installs a fully-built histogram under `name`, replacing any existing
    /// one — the fleet wire decoder's entry point.
    pub(crate) fn insert_hist(&mut self, name: String, h: Histogram) {
        self.hists.insert(name, h);
    }

    /// Prometheus text exposition format (0.0.4). Histograms are exported as
    /// `summary` metrics with p50/p90/p99 quantile labels plus `_sum` and
    /// `_count`; time series contribute their latest value as a gauge with a
    /// `_latest` suffix.
    pub fn to_prometheus(&self) -> String {
        // Sanitization can collide distinct registry names (`a/b` and `a-b`
        // both become `gcs_a_b`); the exposition format allows repeated
        // sample lines but at most one `# TYPE` per metric name, so TYPE
        // lines are deduplicated across all four sections.
        let mut typed = std::collections::BTreeSet::new();
        let mut type_line = |out: &mut String, m: &str, kind: &str| {
            if typed.insert(m.to_string()) {
                out.push_str(&format!("# TYPE {m} {kind}\n"));
            }
        };
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = prom_name(name);
            type_line(&mut out, &m, "counter");
            out.push_str(&format!("{m} {}\n", prom_value(*v)));
        }
        for (name, v) in &self.gauges {
            let m = prom_name(name);
            type_line(&mut out, &m, "gauge");
            out.push_str(&format!("{m} {}\n", prom_value(*v)));
        }
        for (name, h) in &self.hists {
            let m = prom_name(name);
            type_line(&mut out, &m, "summary");
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("{m}{{quantile=\"{label}\"}} {}\n", prom_value(v)));
                }
            }
            out.push_str(&format!("{m}_sum {}\n", prom_value(h.sum())));
            out.push_str(&format!("{m}_count {}\n", h.count()));
        }
        for (name, s) in &self.series {
            if let Some((round, v)) = s.latest() {
                let m = prom_name(name);
                let label = prom_label_value(&round.to_string());
                type_line(&mut out, &format!("{m}_latest"), "gauge");
                out.push_str(&format!(
                    "{m}_latest{{round=\"{label}\"}} {}\n",
                    prom_value(v)
                ));
            }
        }
        out
    }
}

/// Sanitizes a registry name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, with `/`, `-`, `.` collapsed to `_` and a
/// `gcs_` prefix guaranteeing a valid leading character.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("gcs_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside `label="..."`.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample for Prometheus exposition (finite shortest-roundtrip,
/// `NaN`/`+Inf`/`-Inf` spelled the way the format requires).
fn prom_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = Registry::new();
        r.counter_add("wire_bytes", 10.0);
        r.counter_add("wire_bytes", 5.0);
        r.gauge_set("loss", 2.0);
        r.gauge_set("loss", 1.5);
        assert_eq!(r.counter("wire_bytes"), Some(15.0));
        assert_eq!(r.gauge("loss"), Some(1.5));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn observe_and_series_create_on_first_use() {
        let mut r = Registry::new();
        r.observe("lat", 1.0);
        r.observe("lat", 3.0);
        r.series_push("loss", 0, 2.0);
        r.series_push("loss", 1, 1.0);
        assert_eq!(r.hist("lat").unwrap().count(), 2);
        assert_eq!(r.series("loss").unwrap().latest(), Some((1, 1.0)));
    }

    #[test]
    fn merge_folds_all_metric_kinds() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", 1.0);
        b.counter_add("c", 2.0);
        b.gauge_set("g", 7.0);
        b.observe("h", 5.0);
        b.series_push("s", 3, 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3.0));
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.hist("h").unwrap().count(), 1);
        assert_eq!(a.series("s").unwrap().latest(), Some((3, 9.0)));
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let mut r = Registry::new();
        r.counter_add("collective/ring/wire_bytes", 1024.0);
        r.gauge_set("train/loss", 0.5);
        for i in 1..=100 {
            r.observe("collective/ring/latency_ns", i as f64);
        }
        r.series_push("train/vnmse", 0, 0.1);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE gcs_collective_ring_wire_bytes counter"));
        assert!(text.contains("gcs_collective_ring_wire_bytes 1024"));
        assert!(text.contains("# TYPE gcs_train_loss gauge"));
        assert!(text.contains("# TYPE gcs_collective_ring_latency_ns summary"));
        assert!(text.contains("gcs_collective_ring_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("gcs_collective_ring_latency_ns_count 100"));
        assert!(text.contains("gcs_train_vnmse_latest{round=\"0\"} 0.1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "NaN" || value.ends_with("Inf"),
                "bad value in line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_sanitizes_hostile_metric_names() {
        // Slashes, dashes, dots, leading digits, and unicode must never
        // reach the exposition output: metric names are
        // `[a-zA-Z_:][a-zA-Z0-9_:]*` only.
        let mut r = Registry::new();
        r.counter_add("scheme/top-k/1bit.wire_bytes", 8.0);
        r.gauge_set("9rank/π/skew", 1.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE gcs_scheme_top_k_1bit_wire_bytes counter"));
        assert!(text.contains("gcs_scheme_top_k_1bit_wire_bytes 8"));
        assert!(text.contains("gcs_9rank___skew 1"));
        for line in text.lines() {
            let name = if let Some(rest) = line.strip_prefix("# TYPE ") {
                rest.split(' ').next().unwrap()
            } else {
                line.split(['{', ' ']).next().unwrap()
            };
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "unsanitized metric name in line: {line}"
            );
        }
    }

    #[test]
    fn colliding_sanitized_names_emit_one_type_line_but_all_samples() {
        // `a/b` and `a-b` both sanitize to `gcs_a_b`; Prometheus rejects
        // duplicate `# TYPE` lines for one metric name, so the exporter
        // must emit the TYPE once and keep both sample lines.
        let mut r = Registry::new();
        r.counter_add("a/b", 1.0);
        r.counter_add("a-b", 2.0);
        let text = r.to_prometheus();
        let type_lines = text
            .lines()
            .filter(|l| *l == "# TYPE gcs_a_b counter")
            .count();
        assert_eq!(type_lines, 1, "{text}");
        let sample_lines = text.lines().filter(|l| l.starts_with("gcs_a_b ")).count();
        assert_eq!(sample_lines, 2, "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(prom_label_value("plain"), "plain");
        assert_eq!(prom_label_value("a\"b"), "a\\\"b");
        assert_eq!(prom_label_value("a\\b"), "a\\\\b");
        assert_eq!(prom_label_value("a\nb"), "a\\nb");
    }
}
