//! Cross-process span shipping: a compact byte codec for [`Trace`] events
//! plus the merged multi-rank Chrome/Perfetto exporter.
//!
//! [`SpanRecord`](crate::SpanRecord) borrows `&'static str` names so probes
//! never allocate; once a trace crosses a process boundary those statics
//! are meaningless addresses, so the decoded side is the owned mirror
//! [`OwnedTrace`]. The encoding is versioned, little-endian, with
//! `u16`-length-prefixed UTF-8 names; decoding is bounds-checked
//! everywhere and never trusts a length prefix beyond the buffer it was
//! read from (a corrupt frame yields `Err`, not an allocation storm).
//!
//! The merged exporter renders one Chrome `trace_event` document from many
//! ranks' traces: each rank becomes a Perfetto *process* (`pid = rank`,
//! named via a `process_name` metadata event), per-rank recorder thread
//! ids are preserved as `tid`s, and every timestamp is shifted by the
//! rank's estimated clock offset so all spans land on the collector's
//! timeline. An 8-process training round therefore renders as eight
//! aligned swimlane groups in one trace viewer tab.

use crate::bytes::{put_f64, put_str, put_u32, put_u64, Cursor, Prefix, WireError};
use crate::chrome::{escape_into, push_counter, push_span, push_u64, sep};
use crate::{Phase, Trace};

/// Version byte leading every encoded trace. Bump on layout change.
pub const TRACE_WIRE_VERSION: u8 = 1;

/// A [`SpanRecord`](crate::SpanRecord) with owned strings — the shape a
/// span takes after crossing a process boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedSpan {
    /// Step phase (Chrome trace category).
    pub phase: Phase,
    /// Operation name.
    pub name: String,
    /// Nanoseconds from the *recording* process's origin to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Training round the span was recorded in.
    pub round: u64,
    /// Recorder-assigned thread id in the recording process.
    pub tid: u64,
}

/// A [`CounterRecord`](crate::CounterRecord) with an owned name.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedCounter {
    /// Counter name.
    pub name: String,
    /// Sample value.
    pub value: f64,
    /// Nanoseconds from the recording process's origin to the sample.
    pub at_ns: u64,
    /// Training round the sample was recorded in.
    pub round: u64,
    /// Recorder-assigned thread id.
    pub tid: u64,
}

/// An owned, process-boundary-safe [`Trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OwnedTrace {
    /// Decoded spans, in shipped order.
    pub spans: Vec<OwnedSpan>,
    /// Decoded counter samples, in shipped order.
    pub counters: Vec<OwnedCounter>,
}

impl OwnedTrace {
    /// True when nothing was shipped.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Appends another decoded batch (ship order is preserved).
    pub fn extend(&mut self, mut other: OwnedTrace) {
        self.spans.append(&mut other.spans);
        self.counters.append(&mut other.counters);
    }

    /// Drops the oldest spans/counters until at most `max` of each remain —
    /// the collector's bounded-memory guard for long-running fleets.
    pub fn truncate_oldest(&mut self, max: usize) {
        if self.spans.len() > max {
            self.spans.drain(..self.spans.len() - max);
        }
        if self.counters.len() > max {
            self.counters.drain(..self.counters.len() - max);
        }
    }
}

/// Serializes a recorded [`Trace`] for shipping. The layout is
/// `[version][n_spans][span…][n_counters][counter…]`, spans as
/// `[phase u8][name u16+utf8][start u64][dur u64][round u64][tid u64]`,
/// counters as `[name][value-bits u64][at u64][round u64][tid u64]`, all
/// little-endian.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 64 * (trace.spans.len() + trace.counters.len()));
    out.push(TRACE_WIRE_VERSION);
    put_u32(&mut out, trace.spans.len() as u32);
    for s in &trace.spans {
        let phase_idx = Phase::ALL.iter().position(|p| *p == s.phase).unwrap_or(0);
        out.push(phase_idx as u8);
        put_str(&mut out, Prefix::U16, s.name);
        put_u64(&mut out, s.start_ns);
        put_u64(&mut out, s.dur_ns);
        put_u64(&mut out, s.round);
        put_u64(&mut out, s.tid);
    }
    put_u32(&mut out, trace.counters.len() as u32);
    for c in &trace.counters {
        put_str(&mut out, Prefix::U16, c.name);
        put_f64(&mut out, c.value);
        put_u64(&mut out, c.at_ns);
        put_u64(&mut out, c.round);
        put_u64(&mut out, c.tid);
    }
    out
}

/// Minimum encoded bytes per span / counter — used to bound `Vec`
/// pre-allocation against corrupt count prefixes.
const MIN_SPAN_BYTES: usize = 1 + 2 + 32;
const MIN_COUNTER_BYTES: usize = 2 + 32;

/// Decodes the output of [`encode_trace`]. Any truncation, unknown
/// version, bad phase tag, length prefix past the buffer end, or byte left
/// after the last counter is an error naming the problem.
pub fn decode_trace(bytes: &[u8]) -> Result<OwnedTrace, String> {
    let mut cur = Cursor::new(bytes);
    let version = cur.u8()?;
    if version != TRACE_WIRE_VERSION {
        return Err(format!("trace wire: unsupported version {version}"));
    }
    let n_spans = cur.count(Prefix::U32, MIN_SPAN_BYTES)?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let phase_idx = cur.u8()? as usize;
        let phase = *Phase::ALL
            .get(phase_idx)
            .ok_or_else(|| format!("trace wire: bad phase tag {phase_idx}"))?;
        spans.push(OwnedSpan {
            phase,
            name: cur.str(Prefix::U16)?,
            start_ns: cur.u64()?,
            dur_ns: cur.u64()?,
            round: cur.u64()?,
            tid: cur.u64()?,
        });
    }
    let n_counters = cur.count(Prefix::U32, MIN_COUNTER_BYTES)?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        counters.push(OwnedCounter {
            name: cur.str(Prefix::U16)?,
            value: cur.f64()?,
            at_ns: cur.u64()?,
            round: cur.u64()?,
            tid: cur.u64()?,
        });
    }
    match cur.remaining() {
        0 => Ok(OwnedTrace { spans, counters }),
        extra => Err(WireError::Trailing { extra }.into()),
    }
}

/// One rank's contribution to a merged fleet trace.
#[derive(Clone, Debug)]
pub struct RankTrace {
    /// Chrome `pid` for this rank's swimlane group (by convention the
    /// fleet rank itself).
    pub pid: u64,
    /// Human-readable process label (`process_name` metadata event).
    pub label: String,
    /// Estimated offset from this rank's clock to the merged timeline's
    /// clock, in nanoseconds: `merged_time ≈ rank_time + offset`.
    pub clock_offset_ns: i64,
    /// The rank's shipped events.
    pub trace: OwnedTrace,
}

/// Applies a clock offset to a rank-local timestamp, clamped to `u64`.
fn aligned_ns(ns: u64, offset: i64) -> u64 {
    (ns as i128 + offset as i128).clamp(0, u64::MAX as i128) as u64
}

/// Serializes many ranks' traces into one Chrome `trace_event` document on
/// a common timeline: `pid = rank`, per-rank `process_name` metadata,
/// clock-offset-aligned timestamps.
pub fn merged_chrome_json(ranks: &[RankTrace]) -> String {
    let events: usize = ranks
        .iter()
        .map(|r| r.trace.spans.len() + r.trace.counters.len() + 1)
        .sum();
    let mut out = String::with_capacity(32 + 160 * events);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for r in ranks {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        push_u64(&mut out, r.pid);
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
        escape_into(&mut out, &r.label);
        out.push_str("\"}}");
        for s in &r.trace.spans {
            sep(&mut out, &mut first);
            let ts_ns = aligned_ns(s.start_ns, r.clock_offset_ns);
            let lane = (r.pid, s.tid);
            push_span(&mut out, &s.name, s.phase, ts_ns, s.dur_ns, lane, s.round);
        }
        for c in &r.trace.counters {
            sep(&mut out, &mut first);
            let ts_ns = aligned_ns(c.at_ns, r.clock_offset_ns);
            push_counter(&mut out, &c.name, ts_ns, (r.pid, c.tid), c.value);
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterRecord, SpanRecord};

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    phase: Phase::Compute,
                    name: "forward_backward",
                    start_ns: 1_000,
                    dur_ns: 2_000,
                    round: 0,
                    tid: 0,
                },
                SpanRecord {
                    phase: Phase::Network,
                    name: "ring_all_reduce",
                    start_ns: 4_000,
                    dur_ns: 3_000,
                    round: 1,
                    tid: 2,
                },
            ],
            counters: vec![CounterRecord {
                name: "wire_bytes",
                value: 4096.0,
                at_ns: 8_000,
                round: 1,
                tid: 0,
            }],
        }
    }

    #[test]
    fn codec_round_trips_spans_and_counters() {
        let t = sample_trace();
        let decoded = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(decoded.spans.len(), 2);
        assert_eq!(decoded.counters.len(), 1);
        let s = &decoded.spans[1];
        assert_eq!(s.phase, Phase::Network);
        assert_eq!(s.name, "ring_all_reduce");
        assert_eq!((s.start_ns, s.dur_ns, s.round, s.tid), (4_000, 3_000, 1, 2));
        let c = &decoded.counters[0];
        assert_eq!(c.name, "wire_bytes");
        assert_eq!(c.value, 4096.0);
    }

    #[test]
    fn codec_preserves_non_finite_counter_bits() {
        let t = Trace {
            spans: Vec::new(),
            counters: vec![CounterRecord {
                name: "vnmse",
                value: f64::NAN,
                at_ns: 1,
                round: 0,
                tid: 0,
            }],
        };
        let decoded = decode_trace(&encode_trace(&t)).unwrap();
        assert!(decoded.counters[0].value.is_nan());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let enc = encode_trace(&sample_trace());
        for cut in [0, 1, 5, enc.len() - 1] {
            assert!(decode_trace(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_version = enc.clone();
        bad_version[0] = 99;
        assert!(decode_trace(&bad_version).unwrap_err().contains("version"));
        let mut bad_phase = enc.clone();
        bad_phase[5] = 200; // first span's phase tag
        assert!(decode_trace(&bad_phase).unwrap_err().contains("phase"));
        // A corrupt count prefix must not trigger a huge allocation.
        let mut bad_count = enc;
        bad_count[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_trace(&bad_count).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let decoded = decode_trace(&encode_trace(&Trace::default())).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncate_oldest_keeps_the_newest_events() {
        let mut t = decode_trace(&encode_trace(&sample_trace())).unwrap();
        t.truncate_oldest(1);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "ring_all_reduce");
    }

    #[test]
    fn merged_export_tags_distinct_pids_and_aligns_clocks() {
        let base = decode_trace(&encode_trace(&sample_trace())).unwrap();
        let ranks = vec![
            RankTrace {
                pid: 0,
                label: "rank 0".to_string(),
                clock_offset_ns: 0,
                trace: base.clone(),
            },
            RankTrace {
                pid: 1,
                label: "rank 1".to_string(),
                clock_offset_ns: 1_000_000,
                trace: base,
            },
        ];
        let json = merged_chrome_json(&ranks);
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        // Rank 0's first span at 1 µs; rank 1's same span shifted by 1 ms.
        assert!(json.contains("\"ts\":1,"));
        assert!(json.contains("\"ts\":1001,"));
    }

    #[test]
    fn negative_offsets_clamp_instead_of_wrapping() {
        let trace = OwnedTrace {
            spans: vec![OwnedSpan {
                phase: Phase::Eval,
                name: "early".to_string(),
                start_ns: 10,
                dur_ns: 5,
                round: 0,
                tid: 0,
            }],
            counters: Vec::new(),
        };
        let json = merged_chrome_json(&[RankTrace {
            pid: 3,
            label: "rank 3".to_string(),
            clock_offset_ns: -1_000_000,
            trace,
        }]);
        assert!(json.contains("\"ts\":0,"), "{json}");
    }
}
