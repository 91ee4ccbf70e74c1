//! Decoder totality: the five decoders that take bytes off a socket —
//! `decode_trace`, `decode_registry`, the aggd request/reply messages,
//! telemetry frames and registry frames — all read through the one
//! `gcs_trace::bytes::Cursor`, and all must be total over arbitrary input:
//!
//! * every strict prefix of a valid encoding is `Err`, never a panic;
//! * every single-byte mutation returns `Ok` or `Err`, never a panic;
//! * a count or length prefix inflated to its maximum is refused *before*
//!   it can size an allocation;
//! * a span or fleet wire encoding followed by one more byte is `Err`, so
//!   a payload of another layout behind a forged version byte is refused.
//!
//! One generator per format; the first three checks are shared. The length
//! prefix of the framed carrier under all of them is held to the third
//! rule on a live socket.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gcs_alloc::{counting_enabled, measure, CountingAlloc};
use gradient_utility::aggd::proto::{
    decode_hello, decode_reject, encode_bye, encode_fetch, encode_fetch_ok, encode_hello,
    encode_reject, encode_submit, encode_submit_ok, Cursor, RejectCode, T_BYE, T_FETCH, T_FETCH_OK,
    T_HELLO, T_REJECT, T_SUBMIT, T_SUBMIT_OK,
};
use gradient_utility::aggd::{SchemeSpec, TenantConfig, TenantFaultSpec};
use gradient_utility::collectives::tcp::RegistryMsg;
use gradient_utility::collectives::telemetry::TelemetryFrame;
use gradient_utility::collectives::{FramedStream, RecvFail};
use gradient_utility::metrics::fleet::{decode_registry, encode_registry};
use gradient_utility::metrics::Registry;
use gradient_utility::trace::bytes::{put_str, put_u64, Prefix};
use gradient_utility::trace::wire::{decode_trace, encode_trace};
use gradient_utility::trace::{CounterRecord, Phase, SpanRecord, Trace};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NAMES: [&str; 5] = [
    "",
    "fwd",
    "ring_all_reduce",
    "scheme/topk/round_ns",
    "débit/μs",
];

// ---------------------------------------------------------------------------
// The shared checks
// ---------------------------------------------------------------------------

/// Prefix and mutation totality of `decode` around one `valid` encoding.
fn assert_total<T>(valid: &[u8], flip: u8, decode: impl Fn(&[u8]) -> Result<T, String>) {
    assert!(decode(valid).is_ok(), "the valid encoding must decode");
    for cut in 0..valid.len() {
        assert!(
            decode(&valid[..cut]).is_err(),
            "prefix {cut} of {} decoded",
            valid.len()
        );
    }
    let mut mutated = valid.to_vec();
    for at in 0..valid.len() {
        for xor in [flip | 1, 0xFF] {
            mutated[at] ^= xor;
            let _ = decode(&mutated); // Ok or Err; a panic fails the test
            mutated[at] = valid[at];
        }
    }
}

/// A count or length prefix in a fixture: offset, width in bytes, and the
/// value the valid encoding holds there (which pins the layout arithmetic).
type PrefixAt = (usize, usize, u64);

/// Overwrites the prefix with all ones and asserts the decoder refuses it
/// having allocated less than `budget` bytes.
fn assert_refuses_inflated<T>(
    valid: &[u8],
    (at, width, holds): PrefixAt,
    budget: u64,
    decode: &impl Fn(&[u8]) -> Result<T, String>,
) {
    let mut le = [0u8; 8];
    le[..width].copy_from_slice(&valid[at..at + width]);
    assert_eq!(u64::from_le_bytes(le), holds, "no prefix at {at}");
    let mut bad = valid.to_vec();
    bad[at..at + width].fill(0xFF);
    let (result, stats) = measure(|| decode(&bad).map(drop));
    assert!(result.is_err(), "inflated prefix at {at} decoded");
    assert!(
        stats.bytes < budget,
        "refusing the prefix at {at} allocated {} bytes (budget {budget})",
        stats.bytes
    );
}

/// The inflated-prefix check over a fixture whose count/length prefixes sit
/// at `prefixes`. The first one precedes every allocation the decoder
/// makes, so refusing it must cost less than the input's own length; the
/// later ones may follow legitimately decoded elements, so they are held to
/// what decoding the valid input allocates on top of that.
fn assert_guards_prefixes<T>(
    valid: &[u8],
    prefixes: &[PrefixAt],
    decode: impl Fn(&[u8]) -> Result<T, String>,
) {
    assert!(counting_enabled(), "CountingAlloc is not installed");
    let (result, whole) = measure(|| decode(valid).map(drop));
    assert!(result.is_ok(), "fixture must decode: {result:?}");
    let len = valid.len() as u64;
    for (i, &prefix) in prefixes.iter().enumerate() {
        let budget = if i == 0 { len } else { len + whole.bytes };
        assert_refuses_inflated(valid, prefix, budget, &decode);
    }
}

// ---------------------------------------------------------------------------
// Span wire (`decode_trace`)
// ---------------------------------------------------------------------------

fn trace_strategy() -> impl Strategy<Value = Trace> {
    let field = || (0usize..NAMES.len(), any::<u64>(), any::<u64>(), 0u64..8);
    let span =
        (0usize..Phase::ALL.len(), field()).prop_map(|(phase, (name, a, b, tid))| SpanRecord {
            phase: Phase::ALL[phase],
            name: NAMES[name],
            start_ns: a,
            dur_ns: b,
            round: a ^ b,
            tid,
        });
    let counter = field().prop_map(|(name, a, b, tid)| CounterRecord {
        name: NAMES[name],
        value: f64::from_bits(a),
        at_ns: b,
        round: a ^ b,
        tid,
    });
    (
        prop::collection::vec(span, 0..5),
        prop::collection::vec(counter, 0..5),
    )
        .prop_map(|(spans, counters)| Trace { spans, counters })
}

// ---------------------------------------------------------------------------
// Fleet wire (`decode_registry`)
// ---------------------------------------------------------------------------

fn registry_strategy() -> impl Strategy<Value = Registry> {
    let sample = || (0usize..NAMES.len(), any::<u64>());
    (
        prop::collection::vec(sample(), 0..4),
        prop::collection::vec(sample(), 0..4),
        prop::collection::vec(sample(), 0..6),
    )
        .prop_map(|(counters, gauges, observations)| {
            let mut reg = Registry::new();
            for (name, bits) in counters {
                reg.counter_add(NAMES[name], f64::from_bits(bits));
            }
            for (name, bits) in gauges {
                reg.gauge_set(NAMES[name], f64::from_bits(bits));
            }
            for (name, bits) in observations {
                reg.observe(NAMES[name], (bits % 1_000_000) as f64);
            }
            reg
        })
}

// ---------------------------------------------------------------------------
// aggd requests and replies
// ---------------------------------------------------------------------------

/// An aggd frame decoded the way the daemon (requests) and the client
/// (replies) do: tag, then the public `proto` decoders in wire order.
/// `dim` is the session's declared dimension, which both ends know.
fn decode_aggd(frame: &[u8], dim: usize) -> Result<(), String> {
    let mut c = Cursor::new(frame);
    let mut payload = Vec::new();
    match c.u8()? {
        T_HELLO => {
            decode_hello(&mut c)?;
        }
        T_SUBMIT => {
            let (_round, _rank) = (c.u64()?, c.u64()?);
            c.f32s_into(dim, &mut payload)?;
        }
        T_FETCH | T_SUBMIT_OK => {
            c.u64()?;
        }
        T_FETCH_OK => {
            let _round = c.u64()?;
            c.f32s_into(dim, &mut payload)?;
        }
        T_REJECT => {
            decode_reject(&mut c)?;
        }
        T_BYE => {}
        tag => return Err(format!("unknown tag {tag:#x}")),
    }
    Ok(())
}

const DIM: usize = 6;

fn aggd_strategy() -> impl Strategy<Value = Vec<u8>> {
    let scheme = prop_oneof![
        (1u32..3200, any::<bool>()).prop_map(|(bits_x100, error_feedback)| SchemeSpec::TopK {
            bits_x100,
            error_feedback
        }),
        (2u32..16).prop_map(|q| SchemeSpec::Thc { q }),
        (1u32..8).prop_map(|q| SchemeSpec::Qsgd { q }),
        (1u32..4, 1u32..8, 1u32..8).prop_map(|(rank, rows, cols)| SchemeSpec::PowerSgd {
            rank,
            rows,
            cols
        }),
    ];
    let hello =
        (scheme, any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(scheme, a, b, faulty)| {
            let mut out = Vec::new();
            let cfg = TenantConfig {
                tenant: a,
                model: b,
                dim: DIM,
                n_workers: 1 + (a % 8) as usize,
                experiment_seed: a ^ b,
                scheme,
                fault: faulty.then_some(TenantFaultSpec {
                    seed: b,
                    reject_period: a as u32,
                    crash_round: a.wrapping_add(b),
                }),
            };
            encode_hello(&mut out, &cfg);
            out
        });
    let floats = || prop::collection::vec(any::<u32>().prop_map(f32::from_bits), DIM..=DIM);
    let submit = (any::<u64>(), 0usize..64, floats()).prop_map(|(round, rank, grad)| {
        let mut out = Vec::new();
        encode_submit(&mut out, round, rank, &grad);
        out
    });
    let fetch_ok = (any::<u64>(), floats()).prop_map(|(round, estimate)| {
        let mut out = Vec::new();
        encode_fetch_ok(&mut out, round, &estimate);
        out
    });
    let word = (any::<u64>(), 0usize..3).prop_map(|(round, which)| {
        let mut out = Vec::new();
        match which {
            0 => encode_fetch(&mut out, round),
            1 => encode_submit_ok(&mut out, round),
            _ => encode_bye(&mut out),
        }
        out
    });
    let reject =
        (1u8..9, any::<u32>(), 0usize..NAMES.len()).prop_map(|(code, retry_after_ms, detail)| {
            let mut out = Vec::new();
            let code = RejectCode::from_u8(code).expect("codes 1..=8 exist");
            encode_reject(&mut out, code, retry_after_ms, NAMES[detail]);
            out
        });
    prop_oneof![hello, submit, fetch_ok, word, reject]
}

// ---------------------------------------------------------------------------
// Telemetry frames
// ---------------------------------------------------------------------------

/// Frames laid out as `gcs_collectives::telemetry`'s table has them and as
/// its shipper builds them (`tests/wire_codec.rs` pins those bytes).
fn telemetry_strategy() -> impl Strategy<Value = Vec<u8>> {
    let words = (1u8..4, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(tag, a, b, c)| {
        // PING carries one word, PONG two, HELLO three.
        let mut out = vec![tag];
        for v in [a, b, c].into_iter().take(tag as usize) {
            put_u64(&mut out, v);
        }
        out
    });
    let snapshot =
        (any::<u64>(), any::<u64>(), registry_strategy()).prop_map(|(rank, epoch, r)| {
            let mut out = vec![0x04];
            put_u64(&mut out, rank);
            put_u64(&mut out, epoch);
            out.extend_from_slice(&encode_registry(&r));
            out
        });
    let trace = (any::<u64>(), trace_strategy()).prop_map(|(rank, t)| {
        let mut out = vec![0x05];
        put_u64(&mut out, rank);
        out.extend_from_slice(&encode_trace(&t));
        out
    });
    let text = (
        any::<bool>(),
        any::<u64>(),
        0usize..NAMES.len(),
        0usize..NAMES.len(),
    )
        .prop_map(|(event, rank, a, b)| {
            // EVENT carries two strings, FLIGHT one.
            let mut out = vec![if event { 0x06 } else { 0x07 }];
            put_u64(&mut out, rank);
            put_str(&mut out, Prefix::U64, NAMES[a]);
            if event {
                put_str(&mut out, Prefix::U64, NAMES[b]);
            }
            out
        });
    prop_oneof![words, snapshot, trace, text, Just(vec![0x08])]
}

fn decode_telemetry(frame: &[u8]) -> Result<TelemetryFrame, String> {
    TelemetryFrame::decode(frame)
}

// ---------------------------------------------------------------------------
// Registry frames
// ---------------------------------------------------------------------------

fn registry_msg_strategy() -> impl Strategy<Value = RegistryMsg> {
    let addr = || (0u16..u16::MAX).prop_map(|port| format!("127.0.0.1:{port}"));
    prop_oneof![
        addr().prop_map(|addr| RegistryMsg::Join { addr }),
        any::<u64>().prop_map(|id| RegistryMsg::Id { id }),
        any::<u64>().prop_map(|round| RegistryMsg::Begin { round }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(addr(), 0..9)
        )
            .prop_map(|(round, epoch, rank, addrs)| RegistryMsg::Round {
                round,
                epoch,
                rank,
                addrs
            }),
        Just(RegistryMsg::Leave),
        Just(RegistryMsg::Bye),
    ]
}

fn decode_registry_msg(frame: &[u8]) -> Result<Option<RegistryMsg>, String> {
    RegistryMsg::decode(frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn span_wire_is_total(trace in trace_strategy(), flip in any::<u8>()) {
        assert_total(&encode_trace(&trace), flip, decode_trace);
    }

    #[test]
    fn fleet_wire_is_total(reg in registry_strategy(), flip in any::<u8>()) {
        assert_total(&encode_registry(&reg), flip, decode_registry);
    }

    #[test]
    fn span_and_fleet_wire_refuse_trailing_bytes(
        trace in trace_strategy(),
        reg in registry_strategy(),
        extra in any::<u8>(),
    ) {
        let mut span = encode_trace(&trace);
        span.push(extra);
        prop_assert!(decode_trace(&span).is_err());
        let mut fleet = encode_registry(&reg);
        fleet.push(extra);
        prop_assert!(decode_registry(&fleet).is_err());
    }

    #[test]
    fn aggd_messages_are_total(frame in aggd_strategy(), flip in any::<u8>()) {
        assert_total(&frame, flip, |bytes| decode_aggd(bytes, DIM));
    }

    #[test]
    fn telemetry_frames_are_total(frame in telemetry_strategy(), flip in any::<u8>()) {
        assert_total(&frame, flip, decode_telemetry);
    }

    #[test]
    fn registry_frames_are_total(msg in registry_msg_strategy(), flip in any::<u8>()) {
        let frame = msg.encode();
        assert_total(&frame, flip, decode_registry_msg);
        prop_assert_eq!(decode_registry_msg(&frame), Ok(Some(msg)));
    }
}

// ---------------------------------------------------------------------------
// Inflated prefixes, on fixtures with known layouts
// ---------------------------------------------------------------------------

/// A name long enough that every fixture outweighs an error message.
const LONG: &str =
    "a/metric/name/long/enough/that/one/element/outweighs/any/error/message/the/refusal/formats";

/// The framed carrier's own length prefix: a header claiming the largest
/// legal frame, one byte, then silence times out having grown the
/// reassembly buffer by at most one read window (64 KiB + header) beyond
/// the bytes that arrived — and a frame left incomplete still completes.
#[test]
fn frame_length_prefix_buys_no_memory() {
    const WINDOW: u64 = 64 * 1024 + 4;
    assert!(counting_enabled(), "CountingAlloc is not installed");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let connect = || {
        let raw = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        (raw, FramedStream::new(listener.accept().expect("accept").0))
    };
    // A `recv_frame` on a peer gone silent mid-frame: `TimedOut` within its
    // deadline; returns the bytes it allocated.
    let stalled = |rx: &mut FramedStream| {
        let deadline = Duration::from_millis(100);
        let t0 = Instant::now();
        let (result, stats) = measure(|| rx.recv_frame(deadline).map(drop));
        let took = t0.elapsed();
        assert!(matches!(result, Err(RecvFail::TimedOut)), "{result:?}");
        assert!(took < deadline + Duration::from_millis(50), "took {took:?}");
        stats.bytes
    };

    // The largest legal claim, one byte, then silence.
    let (mut raw, mut rx) = connect();
    raw.write_all(&(1u32 << 30).to_le_bytes()).expect("header");
    raw.write_all(&[7]).expect("one byte");
    let bytes = stalled(&mut rx);
    assert!(
        bytes <= WINDOW + 5,
        "a 1 GiB claim allocated {bytes} bytes for 5 received"
    );

    // A 256 KiB claim left partial costs the same, and once the rest
    // arrives the frame is delivered intact.
    let (mut raw, mut rx) = connect();
    let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 253) as u8).collect();
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("header");
    raw.write_all(&payload[..1000]).expect("partial payload");
    let bytes = stalled(&mut rx);
    assert!(
        bytes <= WINDOW + 1004,
        "a 256 KiB claim allocated {bytes} bytes for 1004 received"
    );
    let rest = payload[1000..].to_vec();
    let writer = std::thread::spawn(move || raw.write_all(&rest).expect("rest of payload"));
    assert_eq!(
        rx.recv_frame(Duration::from_secs(5))
            .expect("completed frame"),
        payload
    );
    writer.join().expect("writer");
}

#[test]
fn inflated_prefixes_are_refused_before_they_size_an_allocation() {
    // Span wire: [version][n_spans u32] [phase][name u16+utf8][4 × u64] … [n_counters u32] …
    let span = SpanRecord {
        phase: Phase::Network,
        name: LONG,
        start_ns: 1,
        dur_ns: 2,
        round: 3,
        tid: 4,
    };
    let trace = Trace {
        spans: vec![span; 4],
        counters: vec![CounterRecord {
            name: LONG,
            value: 1.0,
            at_ns: 2,
            round: 3,
            tid: 4,
        }],
    };
    let span_bytes = 1 + 2 + LONG.len() + 32;
    let n_counters = 5 + 4 * span_bytes;
    let name = LONG.len() as u64;
    let prefixes = [
        (1, 4, 4),
        (6, 2, name),
        (n_counters, 4, 1),
        (n_counters + 4, 2, name),
    ];
    assert_guards_prefixes(&encode_trace(&trace), &prefixes, decode_trace);

    // Fleet wire: [version][n_counters u32] [name u32+utf8][f64] … [n_gauges u32] … with the
    // histogram's bucket count further in.
    let mut reg = Registry::new();
    for (i, name) in [LONG, "b", "c"].into_iter().enumerate() {
        reg.counter_add(name, i as f64);
    }
    reg.gauge_set("g", 1.0);
    reg.observe("h", 1000.0);
    let counters = 3 * (4 + 8) + LONG.len() + 2;
    let n_gauges = 5 + counters;
    let n_hists = n_gauges + 4 + (4 + 1 + 8);
    let n_buckets = n_hists + 4 + (4 + 1) + 5 * 8;
    let prefixes = [
        (1, 4, 3),
        (5, 4, name),
        (n_gauges, 4, 1),
        (n_hists, 4, 1),
        (n_buckets, 4, 1),
    ];
    let registry_bytes = encode_registry(&reg);
    assert_guards_prefixes(&registry_bytes, &prefixes, decode_registry);

    // aggd REJECT: [tag][code][retry u64][detail u64+utf8].
    let mut reject = Vec::new();
    encode_reject(&mut reject, RejectCode::BadFrame, 0, &LONG.repeat(3));
    assert_guards_prefixes(&reject, &[(10, 8, 3 * name)], |b| decode_aggd(b, DIM));

    // Telemetry EVENT: [tag][rank u64][kind u64+utf8][detail u64+utf8]; SNAPSHOT embeds the
    // fleet wire after [tag][rank u64][epoch u64].
    let mut event = vec![0x06];
    put_u64(&mut event, 2);
    put_str(&mut event, Prefix::U64, LONG);
    put_str(&mut event, Prefix::U64, &LONG.repeat(2));
    let prefixes = [(9, 8, name), (17 + LONG.len(), 8, 2 * name)];
    assert_guards_prefixes(&event, &prefixes, decode_telemetry);
    let mut snapshot = vec![0x04];
    put_u64(&mut snapshot, 2);
    put_u64(&mut snapshot, 5);
    snapshot.extend_from_slice(&registry_bytes);
    assert_guards_prefixes(&snapshot, &[(18, 4, 3), (22, 4, name)], decode_telemetry);

    // Registry ROUND: [tag][round u64][epoch u64][rank u64][n u32][addr u16+utf8] …; JOIN is
    // [tag][addr u16+utf8].
    let round = RegistryMsg::Round {
        round: 1,
        epoch: 2,
        rank: 0,
        addrs: vec![LONG.to_string(); 3],
    };
    assert_guards_prefixes(
        &round.encode(),
        &[(25, 4, 3), (29, 2, name)],
        decode_registry_msg,
    );
    let join = RegistryMsg::Join {
        addr: LONG.repeat(3),
    };
    assert_guards_prefixes(&join.encode(), &[(1, 2, 3 * name)], decode_registry_msg);
}
