//! Fleet-wide telemetry aggregation: the transport-free half of the
//! telemetry plane.
//!
//! A fleet run has one collector process (the rendezvous side) and N
//! workers. Each worker periodically serializes its whole [`Registry`]
//! with [`encode_registry`] and ships it; the collector decodes with
//! [`decode_registry`] and folds it into a [`FleetAggregator`]. Shipping
//! *full snapshots with replacement* (rather than deltas) makes the
//! protocol loss-tolerant and idempotent: a dropped or duplicated frame
//! changes nothing once the next snapshot lands, and no per-connection
//! delta bookkeeping can drift.
//!
//! The aggregator tracks per-worker membership (join / leave / death),
//! clock-offset estimates from the transport handshake, and renders one
//! merged fleet registry: member registries merged metric-by-metric plus
//! derived `fleet/*` gauges (per-rank round latency, wire bytes, straggler
//! skew, epoch and membership churn) ready for the Prometheus scrape
//! endpoint.
//!
//! [`FlightRecorder`] is the crash post-mortem half: a bounded ring of the
//! most recent spans and fault/membership events that a worker both
//! persists locally every round and ships to the collector, so a SIGKILL'd
//! rank leaves a JSONL artifact on both sides instead of silence.
//!
//! The actual TCP framing lives in `gcs-collectives::telemetry`; this
//! module is deliberately transport-free so it can be tested (and reused,
//! e.g. by the bench harness) in-process.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use crate::json::Json;
use crate::registry::Registry;
use crate::Histogram;
use gcs_trace::bytes::{put_f64, put_str, put_u32, put_u64, put_u8, Cursor, Prefix};

/// Version byte leading every encoded registry. Bump on layout change.
pub const FLEET_WIRE_VERSION: u8 = 1;

/// Histogram every fleet worker records its per-round wall time into; the
/// aggregator derives per-rank round-latency gauges and straggler skew
/// from it.
pub const ROUND_HIST: &str = "fleet/round_ns";

/// Counter every fleet worker adds its per-round collective wire bytes to;
/// the aggregator derives per-rank wire-byte gauges from it.
pub const WIRE_BYTES_COUNTER: &str = "fleet/wire_bytes_total";

/// Serializes a full [`Registry`] for shipping: version byte, then the
/// four metric sections (counters, gauges, histograms, series), each
/// length-prefixed, all little-endian.
pub fn encode_registry(reg: &Registry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u8(&mut out, FLEET_WIRE_VERSION);
    let counters: Vec<(&str, f64)> = reg.counters().collect();
    put_u32(&mut out, counters.len() as u32);
    for (name, v) in counters {
        put_str(&mut out, Prefix::U32, name);
        put_f64(&mut out, v);
    }
    let gauges: Vec<(&str, f64)> = reg.gauges().collect();
    put_u32(&mut out, gauges.len() as u32);
    for (name, v) in gauges {
        put_str(&mut out, Prefix::U32, name);
        put_f64(&mut out, v);
    }
    let hists: Vec<(&str, &Histogram)> = reg.hists().collect();
    put_u32(&mut out, hists.len() as u32);
    for (name, h) in hists {
        put_str(&mut out, Prefix::U32, name);
        h.wire_encode(&mut out);
    }
    let series: Vec<_> = reg.all_series().collect();
    put_u32(&mut out, series.len() as u32);
    for (name, s) in series {
        put_str(&mut out, Prefix::U32, name);
        let points: Vec<(u64, f64)> = s.iter().collect();
        put_u32(&mut out, points.len() as u32);
        for (round, v) in points {
            put_u64(&mut out, round);
            put_f64(&mut out, v);
        }
    }
    out
}

/// Inverse of [`encode_registry`]. Truncated payloads, unknown versions,
/// and length prefixes past the buffer end all produce `Err`.
pub fn decode_registry(bytes: &[u8]) -> Result<Registry, String> {
    let mut r = Cursor::new(bytes);
    let version = r.u8()?;
    if version != FLEET_WIRE_VERSION {
        return Err(format!("fleet wire: unsupported version {version}"));
    }
    let mut reg = Registry::new();
    // Each count is checked against the smallest encoding of its elements.
    for _ in 0..r.count(Prefix::U32, 12)? {
        let name = r.str(Prefix::U32)?;
        reg.counter_add(&name, r.f64()?);
    }
    for _ in 0..r.count(Prefix::U32, 12)? {
        let name = r.str(Prefix::U32)?;
        reg.gauge_set(&name, r.f64()?);
    }
    for _ in 0..r.count(Prefix::U32, 48)? {
        let name = r.str(Prefix::U32)?;
        let h = Histogram::wire_decode(&mut r)?;
        reg.insert_hist(name, h);
    }
    for _ in 0..r.count(Prefix::U32, 8)? {
        let name = r.str(Prefix::U32)?;
        for _ in 0..r.count(Prefix::U32, 16)? {
            let round = r.u64()?;
            reg.series_push(&name, round, r.f64()?);
        }
    }
    Ok(reg)
}

/// One fleet worker as seen by the collector.
#[derive(Clone, Debug)]
pub struct FleetMember {
    /// Registry-assigned worker id (stable across the worker's lifetime).
    pub worker_id: u64,
    /// Rank in the most recent epoch's membership (from the last snapshot).
    pub rank: u64,
    /// Membership epoch of the last snapshot.
    pub epoch: u64,
    /// Estimated clock offset: `collector_time ≈ worker_time + offset` (ns).
    pub clock_offset_ns: i64,
    /// Half-RTT bound on the offset estimate's error (ns).
    pub clock_err_ns: u64,
    /// False once the worker left (BYE) or died (connection lost).
    pub alive: bool,
    /// Snapshots received so far.
    pub snapshots: u64,
    /// The worker's latest full registry snapshot (replaced, not merged).
    pub registry: Registry,
}

/// Collector-side membership and metric aggregation for one fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetAggregator {
    members: BTreeMap<u64, FleetMember>,
    joins: u64,
    deaths: u64,
    leaves: u64,
    churn: u64,
    frames: u64,
    bytes: u64,
    max_epoch: u64,
}

impl FleetAggregator {
    /// An empty aggregator.
    pub fn new() -> FleetAggregator {
        FleetAggregator::default()
    }

    /// Registers a worker after its telemetry handshake. Re-joining with
    /// the same id resurrects the member (its metrics resume replacing).
    pub fn on_join(&mut self, worker_id: u64, clock_offset_ns: i64, clock_err_ns: u64) {
        self.joins += 1;
        let m = self.members.entry(worker_id).or_insert(FleetMember {
            worker_id,
            rank: 0,
            epoch: 0,
            clock_offset_ns,
            clock_err_ns,
            alive: true,
            snapshots: 0,
            registry: Registry::new(),
        });
        m.alive = true;
        m.clock_offset_ns = clock_offset_ns;
        m.clock_err_ns = clock_err_ns;
    }

    /// Replaces a worker's registry snapshot. Idempotent: re-applying the
    /// same snapshot changes nothing. An epoch increase counts as one unit
    /// of membership churn.
    pub fn on_snapshot(&mut self, worker_id: u64, rank: u64, epoch: u64, registry: Registry) {
        let m = self.members.entry(worker_id).or_insert(FleetMember {
            worker_id,
            rank,
            epoch,
            clock_offset_ns: 0,
            clock_err_ns: 0,
            alive: true,
            snapshots: 0,
            registry: Registry::new(),
        });
        if epoch > m.epoch && m.snapshots > 0 {
            self.churn += 1;
        }
        m.rank = rank;
        m.epoch = epoch;
        m.snapshots += 1;
        m.registry = registry;
        self.max_epoch = self.max_epoch.max(epoch);
    }

    /// Marks a worker dead (connection lost without BYE). Returns `true`
    /// if this transitioned a live member to dead.
    pub fn on_death(&mut self, worker_id: u64) -> bool {
        match self.members.get_mut(&worker_id) {
            Some(m) if m.alive => {
                m.alive = false;
                self.deaths += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks a worker as cleanly departed (BYE received).
    pub fn on_leave(&mut self, worker_id: u64) {
        if let Some(m) = self.members.get_mut(&worker_id) {
            if m.alive {
                m.alive = false;
                self.leaves += 1;
            }
        }
    }

    /// Accounts one received telemetry frame of `bytes` payload bytes.
    pub fn note_frame(&mut self, bytes: u64) {
        self.frames += 1;
        self.bytes += bytes;
    }

    /// All known members, dead and alive, by worker id.
    pub fn members(&self) -> impl Iterator<Item = &FleetMember> {
        self.members.values()
    }

    /// A member by worker id.
    pub fn member(&self, worker_id: u64) -> Option<&FleetMember> {
        self.members.get(&worker_id)
    }

    /// Live member count.
    pub fn alive_count(&self) -> usize {
        self.members.values().filter(|m| m.alive).count()
    }

    /// `(joins, deaths, leaves, churn)` totals.
    pub fn membership_totals(&self) -> (u64, u64, u64, u64) {
        (self.joins, self.deaths, self.leaves, self.churn)
    }

    /// `(frames, bytes)` telemetry transfer totals.
    pub fn transfer_totals(&self) -> (u64, u64) {
        (self.frames, self.bytes)
    }

    /// Max/mean skew of the live ranks' mean round latencies (from each
    /// rank's [`ROUND_HIST`]); 1.0 when balanced. `None` until a live rank
    /// has shipped a finite round timing, or when every mean is zero.
    pub fn straggler_skew(&self) -> Option<f64> {
        let mut ranks: BTreeMap<u64, Histogram> = BTreeMap::new();
        for m in self.members.values().filter(|m| m.alive) {
            if let Some(mean) = m.registry.hist(ROUND_HIST).and_then(|h| h.mean()) {
                ranks.entry(m.rank).or_default().record(mean);
            }
        }
        let means: Vec<f64> = ranks.values().filter_map(|h| h.mean()).collect();
        let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // No means: 0/0 is NaN, which fails `> 0` like an all-zero fleet.
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        (mean > 0.0).then(|| max / mean)
    }

    /// Renders the merged fleet registry: every member's metrics folded
    /// together, plus derived `fleet/*` gauges and counters:
    ///
    /// - `fleet/rank/<r>/round_p50_ns`, `.../rounds_total`,
    ///   `.../wire_bytes_total`, `.../clock_offset_ns`, `.../up` per member;
    /// - `fleet/members`, `fleet/epoch`, `fleet/straggler_skew` gauges;
    /// - `fleet/membership/{joins,deaths,leaves,churn}_total` and
    ///   `fleet/telemetry/{frames,bytes}_total` counters.
    pub fn fleet_registry(&self) -> Registry {
        let mut out = Registry::new();
        for m in self.members.values() {
            out.merge(&m.registry);
            let r = m.rank;
            if let Some(h) = m.registry.hist(ROUND_HIST) {
                if let Some(p50) = h.p50() {
                    out.gauge_set(&format!("fleet/rank/{r}/round_p50_ns"), p50);
                }
                out.gauge_set(&format!("fleet/rank/{r}/rounds_total"), h.count() as f64);
            }
            if let Some(bytes) = m.registry.counter(WIRE_BYTES_COUNTER) {
                out.gauge_set(&format!("fleet/rank/{r}/wire_bytes_total"), bytes);
            }
            out.gauge_set(
                &format!("fleet/rank/{r}/clock_offset_ns"),
                m.clock_offset_ns as f64,
            );
            out.gauge_set(
                &format!("fleet/rank/{r}/up"),
                if m.alive { 1.0 } else { 0.0 },
            );
        }
        out.gauge_set("fleet/members", self.alive_count() as f64);
        out.gauge_set("fleet/epoch", self.max_epoch as f64);
        if let Some(skew) = self.straggler_skew() {
            out.gauge_set("fleet/straggler_skew", skew);
        }
        out.counter_add("fleet/membership/joins_total", self.joins as f64);
        out.counter_add("fleet/membership/deaths_total", self.deaths as f64);
        out.counter_add("fleet/membership/leaves_total", self.leaves as f64);
        out.counter_add("fleet/membership/churn_total", self.churn as f64);
        out.counter_add("fleet/telemetry/frames_total", self.frames as f64);
        out.counter_add("fleet/telemetry/bytes_total", self.bytes as f64);
        out
    }
}

/// Default [`FlightRecorder`] capacity (most recent spans + events kept).
pub const FLIGHT_CAPACITY: usize = 256;

/// One entry in a worker's crash flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEntry {
    /// A completed trace span.
    Span {
        /// Operation name.
        name: String,
        /// Step phase name (`Phase::as_str`).
        phase: String,
        /// Span start, ns from the worker's trace origin.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
        /// Training round.
        round: u64,
        /// Recorder thread id.
        tid: u64,
    },
    /// A fault, membership, or lifecycle event.
    Event {
        /// Event kind, e.g. `collective_error`, `epoch_change`, `fatal`.
        kind: String,
        /// Free-form detail.
        detail: String,
        /// When it happened, ns from the worker's trace origin.
        at_ns: u64,
        /// Training round.
        round: u64,
    },
}

/// A bounded ring of the most recent spans and events — the post-mortem
/// a worker leaves behind when it is killed mid-run.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    cap: usize,
    entries: VecDeque<FlightEntry>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last [`FLIGHT_CAPACITY`] entries.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(FLIGHT_CAPACITY)
    }

    /// A recorder keeping the last `cap` entries (`cap` ≥ 1).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            entries: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, e: FlightEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(e);
    }

    /// Folds every span of a recorded trace into the ring.
    pub fn record_trace(&mut self, trace: &gcs_trace::Trace) {
        for s in &trace.spans {
            self.push(FlightEntry::Span {
                name: s.name.to_string(),
                phase: s.phase.as_str().to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                round: s.round,
                tid: s.tid,
            });
        }
    }

    /// Records a fault/membership/lifecycle event, stamped with the current
    /// trace clock and round.
    pub fn record_event(&mut self, kind: &str, detail: &str) {
        self.push(FlightEntry::Event {
            kind: kind.to_string(),
            detail: detail.to_string(),
            at_ns: gcs_trace::now_ns(),
            round: gcs_trace::current_round(),
        });
    }

    /// Entries currently held, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        self.entries.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the ring as JSONL, one object per entry, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let obj = match e {
                FlightEntry::Span {
                    name,
                    phase,
                    start_ns,
                    dur_ns,
                    round,
                    tid,
                } => Json::Object(vec![
                    ("kind".into(), Json::Str("span".into())),
                    ("name".into(), Json::Str(name.clone())),
                    ("phase".into(), Json::Str(phase.clone())),
                    ("start_ns".into(), Json::Num(*start_ns as f64)),
                    ("dur_ns".into(), Json::Num(*dur_ns as f64)),
                    ("round".into(), Json::Num(*round as f64)),
                    ("tid".into(), Json::Num(*tid as f64)),
                ]),
                FlightEntry::Event {
                    kind,
                    detail,
                    at_ns,
                    round,
                } => Json::Object(vec![
                    ("kind".into(), Json::Str("event".into())),
                    ("event".into(), Json::Str(kind.clone())),
                    ("detail".into(), Json::Str(detail.clone())),
                    ("at_ns".into(), Json::Num(*at_ns as f64)),
                    ("round".into(), Json::Num(*round as f64)),
                ]),
            };
            out.push_str(&obj.render());
            out.push('\n');
        }
        out
    }

    /// Atomically persists the ring as JSONL at `path` (write to a `.tmp`
    /// sibling, then rename), so a SIGKILL mid-write never leaves a torn
    /// file — the reader sees either the previous dump or this one.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, self.to_jsonl())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add(WIRE_BYTES_COUNTER, 4096.0);
        r.counter_add("scheme/topk/bits", 12.0);
        r.gauge_set("train/loss", 0.25);
        for i in 1..=100 {
            r.observe(ROUND_HIST, 1000.0 * i as f64);
        }
        r.series_push("train/vnmse", 0, 0.5);
        r.series_push("train/vnmse", 1, 0.4);
        r
    }

    #[test]
    fn registry_codec_round_trips_all_sections() {
        let reg = sample_registry();
        let decoded = decode_registry(&encode_registry(&reg)).unwrap();
        assert_eq!(decoded.counter(WIRE_BYTES_COUNTER), Some(4096.0));
        assert_eq!(decoded.gauge("train/loss"), Some(0.25));
        let h = decoded.hist(ROUND_HIST).unwrap();
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(1000.0));
        assert_eq!(h.max(), Some(100_000.0));
        assert_eq!(h.p50(), reg.hist(ROUND_HIST).unwrap().p50());
        assert_eq!(
            decoded.series("train/vnmse").unwrap().to_vec(),
            vec![(0, 0.5), (1, 0.4)]
        );
    }

    #[test]
    fn registry_codec_rejects_corrupt_frames() {
        let enc = encode_registry(&sample_registry());
        for cut in [0, 1, 4, enc.len() - 1] {
            assert!(decode_registry(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_version = enc.clone();
        bad_version[0] = 9;
        assert!(decode_registry(&bad_version)
            .unwrap_err()
            .contains("version"));
        let mut bad_count = enc;
        bad_count[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_registry(&bad_count).unwrap_err().contains("exceeds"));
        assert!(decode_registry(&[]).is_err());
    }

    #[test]
    fn empty_registry_round_trips() {
        let decoded = decode_registry(&encode_registry(&Registry::new())).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn snapshots_replace_idempotently() {
        let mut agg = FleetAggregator::new();
        agg.on_join(11, 0, 0);
        agg.on_snapshot(11, 0, 1, sample_registry());
        agg.on_snapshot(11, 0, 1, sample_registry());
        agg.on_snapshot(11, 0, 1, sample_registry());
        let m = agg.member(11).unwrap();
        assert_eq!(m.snapshots, 3);
        // Replaced, not merged: the counter holds one snapshot's value.
        assert_eq!(m.registry.counter(WIRE_BYTES_COUNTER), Some(4096.0));
        let (_, _, _, churn) = agg.membership_totals();
        assert_eq!(churn, 0);
    }

    #[test]
    fn epoch_bumps_count_as_churn() {
        let mut agg = FleetAggregator::new();
        agg.on_join(11, 0, 0);
        agg.on_snapshot(11, 0, 1, Registry::new());
        agg.on_snapshot(11, 1, 2, Registry::new());
        agg.on_snapshot(11, 1, 2, Registry::new());
        let (_, _, _, churn) = agg.membership_totals();
        assert_eq!(churn, 1);
        assert_eq!(agg.member(11).unwrap().rank, 1);
    }

    #[test]
    fn death_and_leave_accounting() {
        let mut agg = FleetAggregator::new();
        agg.on_join(1, 0, 0);
        agg.on_join(2, 0, 0);
        agg.on_join(3, 0, 0);
        assert!(agg.on_death(2));
        assert!(!agg.on_death(2), "double death must not double-count");
        agg.on_leave(3);
        agg.on_leave(3);
        assert!(!agg.on_death(3), "leave then death must not count a death");
        let (joins, deaths, leaves, _) = agg.membership_totals();
        assert_eq!((joins, deaths, leaves), (3, 1, 1));
        assert_eq!(agg.alive_count(), 1);
    }

    #[test]
    fn straggler_skew_needs_live_round_data() {
        let mut agg = FleetAggregator::new();
        assert_eq!(agg.straggler_skew(), None);
        agg.on_join(1, 0, 0);
        agg.on_snapshot(1, 0, 1, Registry::new()); // no ROUND_HIST yet
        assert_eq!(agg.straggler_skew(), None);
        let mut fast = Registry::new();
        fast.observe(ROUND_HIST, 1000.0);
        let mut slow = Registry::new();
        slow.observe(ROUND_HIST, 3000.0);
        agg.on_snapshot(1, 0, 1, fast);
        agg.on_join(2, 0, 0);
        agg.on_snapshot(2, 1, 1, slow);
        let skew = agg.straggler_skew().unwrap();
        assert!(skew > 1.0, "slow rank must raise skew, got {skew}");
        // Dead ranks drop out of the skew computation.
        agg.on_death(2);
        let skew_after = agg.straggler_skew().unwrap();
        assert!((skew_after - 1.0).abs() < 1e-9, "{skew_after}");
    }

    #[test]
    fn straggler_skew_is_none_when_every_mean_is_zero() {
        let mut agg = FleetAggregator::new();
        for id in 0..3 {
            let mut reg = Registry::new();
            reg.observe(ROUND_HIST, 0.0);
            agg.on_join(id, 0, 0);
            agg.on_snapshot(id, id, 1, reg);
        }
        assert_eq!(agg.straggler_skew(), None);
    }

    #[test]
    fn straggler_skew_ignores_a_rank_that_saw_only_nan() {
        let mut agg = FleetAggregator::new();
        let mut nan = Registry::new();
        nan.observe(ROUND_HIST, f64::NAN);
        nan.observe(ROUND_HIST, f64::NAN);
        agg.on_join(1, 0, 0);
        agg.on_snapshot(1, 0, 1, nan);
        assert_eq!(agg.straggler_skew(), None);
        let mut fast = Registry::new();
        fast.observe(ROUND_HIST, 1000.0);
        let mut slow = Registry::new();
        slow.observe(ROUND_HIST, 3000.0);
        agg.on_join(2, 0, 0);
        agg.on_snapshot(2, 1, 1, fast);
        agg.on_join(3, 0, 0);
        agg.on_snapshot(3, 2, 1, slow);
        // Ranks 1 and 2 only: max/mean = 3000 / 2000.
        assert_eq!(agg.straggler_skew(), Some(1.5));
    }

    #[test]
    fn fleet_registry_has_per_rank_and_membership_metrics() {
        let mut agg = FleetAggregator::new();
        agg.on_join(11, 500, 100);
        agg.on_snapshot(11, 0, 1, sample_registry());
        agg.on_join(12, -500, 100);
        agg.on_snapshot(12, 1, 1, sample_registry());
        agg.on_death(12);
        agg.note_frame(128);
        agg.note_frame(64);
        let fleet = agg.fleet_registry();
        assert!(fleet.gauge("fleet/rank/0/round_p50_ns").is_some());
        assert_eq!(fleet.gauge("fleet/rank/0/rounds_total"), Some(100.0));
        assert_eq!(fleet.gauge("fleet/rank/0/wire_bytes_total"), Some(4096.0));
        assert_eq!(fleet.gauge("fleet/rank/0/clock_offset_ns"), Some(500.0));
        assert_eq!(fleet.gauge("fleet/rank/0/up"), Some(1.0));
        assert_eq!(fleet.gauge("fleet/rank/1/up"), Some(0.0));
        assert_eq!(fleet.gauge("fleet/members"), Some(1.0));
        assert_eq!(fleet.gauge("fleet/epoch"), Some(1.0));
        assert_eq!(fleet.counter("fleet/membership/joins_total"), Some(2.0));
        assert_eq!(fleet.counter("fleet/membership/deaths_total"), Some(1.0));
        assert_eq!(fleet.counter("fleet/telemetry/frames_total"), Some(2.0));
        assert_eq!(fleet.counter("fleet/telemetry/bytes_total"), Some(192.0));
        // Member registries merged in: both ranks' wire bytes add up.
        assert_eq!(fleet.counter(WIRE_BYTES_COUNTER), Some(8192.0));
        // And the merged registry still exports cleanly.
        assert!(fleet.to_prometheus().contains("gcs_fleet_members 1"));
    }

    #[test]
    fn flight_recorder_is_bounded_oldest_first_out() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            fr.record_event("tick", &format!("n{i}"));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6);
        let kinds: Vec<String> = fr
            .entries()
            .map(|e| match e {
                FlightEntry::Event { detail, .. } => detail.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, vec!["n6", "n7", "n8", "n9"]);
    }

    #[test]
    fn flight_recorder_jsonl_parses_and_persists_atomically() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record_event("collective_error", "peer closed: \"rank 3\"");
        let trace = gcs_trace::Trace {
            spans: vec![gcs_trace::SpanRecord {
                phase: gcs_trace::Phase::Network,
                name: "ring_all_reduce",
                start_ns: 10,
                dur_ns: 20,
                round: 2,
                tid: 0,
            }],
            counters: Vec::new(),
        };
        fr.record_trace(&trace);
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            Json::parse(line).expect("flight line is valid JSON");
        }
        assert!(jsonl.contains("\"event\":\"collective_error\""));
        assert!(jsonl.contains("\"name\":\"ring_all_reduce\""));
        let dir = std::env::temp_dir().join("gcs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight_worker1.jsonl");
        fr.write_to(&path).unwrap();
        let read_back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_back, jsonl);
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
