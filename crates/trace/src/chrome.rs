//! Chrome `trace_event` exporter.
//!
//! Emits the object form (`{"traceEvents": [...]}`) of the [trace event
//! format] consumed by `about:tracing` and Perfetto. Spans become complete
//! (`"ph": "X"`) events with microsecond timestamps; counters become
//! `"ph": "C"` events so they render as stacked counter tracks.
//!
//! The writer is hand-rolled (this crate has no dependencies): names are
//! escaped, and non-finite floats — which JSON cannot represent — are
//! serialized as `0`.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{Phase, Trace};

/// Serializes `trace` into Chrome `trace_event` JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    // ~160 bytes per event is a comfortable overestimate.
    let mut out = String::with_capacity(32 + 160 * (trace.spans.len() + trace.counters.len()));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in &trace.spans {
        sep(&mut out, &mut first);
        let lane = (1, s.tid);
        push_span(
            &mut out, s.name, s.phase, s.start_ns, s.dur_ns, lane, s.round,
        );
    }
    for c in &trace.counters {
        sep(&mut out, &mut first);
        push_counter(&mut out, c.name, c.at_ns, (1, c.tid), c.value);
    }
    out.push_str("]}");
    out
}

/// Writes a span as a complete (`"ph": "X"`) event on swimlane `lane =
/// (pid, tid)`; `ts_ns` is on the document's timeline.
pub(crate) fn push_span(
    out: &mut String,
    name: &str,
    phase: Phase,
    ts_ns: u64,
    dur_ns: u64,
    lane: (u64, u64),
    round: u64,
) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    out.push_str("\",\"cat\":\"");
    out.push_str(phase.as_str());
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    push_f64(out, ns_to_us(ts_ns));
    out.push_str(",\"dur\":");
    push_f64(out, ns_to_us(dur_ns));
    push_lane(out, lane);
    out.push_str(",\"args\":{\"round\":");
    push_u64(out, round);
    out.push_str("}}");
}

/// Writes a counter sample as a `"ph": "C"` event on swimlane `lane`.
pub(crate) fn push_counter(out: &mut String, name: &str, ts_ns: u64, lane: (u64, u64), value: f64) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    out.push_str("\",\"ph\":\"C\",\"ts\":");
    push_f64(out, ns_to_us(ts_ns));
    push_lane(out, lane);
    out.push_str(",\"args\":{\"");
    escape_into(out, name);
    out.push_str("\":");
    push_f64(out, value);
    out.push_str("}}");
}

fn push_lane(out: &mut String, (pid, tid): (u64, u64)) {
    out.push_str(",\"pid\":");
    push_u64(out, pid);
    out.push_str(",\"tid\":");
    push_u64(out, tid);
}

pub(crate) fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

pub(crate) fn push_u64(out: &mut String, v: u64) {
    out.push_str(&v.to_string());
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push('0');
    }
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterRecord, Phase, SpanRecord};

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    phase: Phase::Compress,
                    name: "gram_schmidt",
                    start_ns: 1_500,
                    dur_ns: 2_000,
                    round: 0,
                    tid: 0,
                },
                SpanRecord {
                    phase: Phase::Reduce,
                    name: "ring_all_reduce",
                    start_ns: 4_000,
                    dur_ns: 1_000,
                    round: 1,
                    tid: 2,
                },
            ],
            counters: vec![CounterRecord {
                name: "wire_bytes",
                value: 4096.0,
                at_ns: 5_000,
                round: 1,
                tid: 0,
            }],
        }
    }

    /// Minimal structural JSON validator: brackets/braces balance outside of
    /// strings, and the document is a single object. Enough to catch broken
    /// emitters without pulling in a parser dependency.
    fn assert_valid_json(s: &str) {
        let mut stack = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for ch in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if ch == '\\' {
                    escaped = true;
                } else if ch == '"' {
                    in_str = false;
                }
                continue;
            }
            match ch {
                '"' => in_str = true,
                '{' => stack.push('}'),
                '[' => stack.push(']'),
                '}' | ']' => assert_eq!(stack.pop(), Some(ch), "mismatched bracket in {s}"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(stack.is_empty(), "unbalanced brackets");
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn emits_structurally_valid_json() {
        let json = to_chrome_json(&sample_trace());
        assert_valid_json(&json);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"gram_schmidt\""));
        assert!(json.contains("\"cat\":\"compress\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        // ts/dur are microseconds.
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2"));
    }

    #[test]
    fn sample_trace_serializes_byte_for_byte() {
        assert_eq!(
            to_chrome_json(&sample_trace()),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"gram_schmidt","cat":"compress","ph":"X","ts":1.5,"dur":2,"#,
                r#""pid":1,"tid":0,"args":{"round":0}},"#,
                r#"{"name":"ring_all_reduce","cat":"reduce","ph":"X","ts":4,"dur":1,"#,
                r#""pid":1,"tid":2,"args":{"round":1}},"#,
                r#"{"name":"wire_bytes","ph":"C","ts":5,"pid":1,"tid":0,"#,
                r#""args":{"wire_bytes":4096}}"#,
                r#"]}"#,
            )
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = to_chrome_json(&Trace::default());
        assert_valid_json(&json);
        assert_eq!(json, "{\"traceEvents\":[]}");
    }

    #[test]
    fn non_finite_counter_values_stay_valid_json() {
        let mut t = sample_trace();
        t.counters.push(CounterRecord {
            name: "vnmse",
            value: f64::NAN,
            at_ns: 6_000,
            round: 2,
            tid: 0,
        });
        let json = to_chrome_json(&t);
        assert_valid_json(&json);
        assert!(!json.contains("NaN"));
    }
}
