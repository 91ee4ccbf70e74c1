//! Property tests for the TCP wire codec (ISSUE 9 satellite).
//!
//! The zero-copy data path rests on `encode_elems_into`/`decode_elems_into`
//! being an exact inverse pair: every f32 bit pattern (NaN payloads
//! included) must round-trip unchanged, the encoder must produce the same
//! bytes into a fresh buffer and a stale one, and any payload that is
//! not exactly `out.len()` elements wide must surface as a *typed*
//! protocol error — never a short read, a panic, or silent truncation.

use gradient_utility::collectives::tcp::{
    decode_elems, decode_elems_into, encode_elems_into, WireElem,
};
use gradient_utility::collectives::CollectiveError;
use proptest::prelude::*;

/// `encode_elems_into` on a fresh buffer.
fn encode_elems<T: WireElem>(elems: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_elems_into(elems, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f32 round-trip is bitwise exact, for the owned and in-place decode
    /// paths alike — arbitrary u32 bit patterns cover NaNs, infinities,
    /// subnormals and both zeros.
    #[test]
    fn f32_round_trip_preserves_every_bit_pattern(
        bits in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let elems: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let bytes = encode_elems(&elems);
        prop_assert_eq!(bytes.len(), elems.len() * 4);

        // The encoder must agree byte-for-byte when its buffer carries
        // stale contents and capacity from a previous (larger) use.
        let mut reused = vec![0xAAu8; 256];
        encode_elems_into(&elems, &mut reused);
        prop_assert_eq!(&bytes, &reused);

        let owned: Vec<f32> = decode_elems(&bytes, 0).expect("aligned payload");
        let owned_bits: Vec<u32> = owned.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&owned_bits, &bits);

        let mut in_place = vec![0.0f32; elems.len()];
        decode_elems_into(&bytes, &mut in_place, 0).expect("aligned payload");
        let in_place_bits: Vec<u32> = in_place.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&in_place_bits, &bits);
    }

    /// Same exactness for the u32 wire element (compressed payload lanes).
    #[test]
    fn u32_round_trip_is_exact(values in prop::collection::vec(any::<u32>(), 0..64)) {
        let bytes = encode_elems(&values);
        let mut out = vec![0u32; values.len()];
        decode_elems_into(&bytes, &mut out, 0).expect("aligned payload");
        prop_assert_eq!(&out, &values);
        let owned: Vec<u32> = decode_elems(&bytes, 0).expect("aligned payload");
        prop_assert_eq!(&owned, &values);
    }

    /// A payload whose byte length is not a multiple of the element width
    /// is a typed protocol error attributing the right peer, on both
    /// decode paths.
    #[test]
    fn misaligned_payload_is_typed_protocol_error(
        len in 1usize..256,
        peer in 0usize..8,
    ) {
        let len = if len.is_multiple_of(4) { len + 1 } else { len };
        let bytes = vec![0xCDu8; len];
        match decode_elems::<f32>(&bytes, peer) {
            Err(CollectiveError::Protocol { peer: p, detail }) => {
                prop_assert_eq!(p, peer);
                prop_assert!(detail.contains("multiple"), "detail {}", detail);
            }
            other => prop_assert!(false, "expected Protocol error, got {:?}", other),
        }
        let mut out = vec![0.0f32; len / 4 + 1];
        match decode_elems_into(&bytes, &mut out, peer) {
            Err(CollectiveError::Protocol { peer: p, .. }) => prop_assert_eq!(p, peer),
            other => prop_assert!(false, "expected Protocol error, got {:?}", other),
        }
    }

    /// An aligned payload carrying the wrong element *count* for the
    /// caller's slice is also a typed protocol error — `decode_elems_into`
    /// must never partially fill or overrun `out`.
    #[test]
    fn element_count_mismatch_is_typed_protocol_error(
        n in 0usize..32,
        delta in 1usize..5,
        grow in any::<bool>(),
    ) {
        let elems = vec![1.5f32; n];
        let bytes = encode_elems(&elems);
        // Always a genuine mismatch: larger when growing (or when n = 0,
        // where shrinking is impossible), strictly smaller otherwise.
        let out_len = if grow || n == 0 { n + delta } else { n - delta.min(n) };
        let sentinel = f32::from_bits(0xDEAD_BEEF);
        let mut out = vec![sentinel; out_len];
        match decode_elems_into(&bytes, &mut out, 2) {
            Err(CollectiveError::Protocol { peer: 2, detail }) => {
                prop_assert!(detail.contains("elements"), "detail {}", detail);
            }
            other => prop_assert!(false, "expected Protocol error, got {:?}", other),
        }
        // The output slice must be untouched on error.
        prop_assert!(out.iter().all(|v| v.to_bits() == sentinel.to_bits()));
    }

    /// Zero-length payloads are valid frames, not errors: empty ring
    /// segments cross the wire as empty messages.
    #[test]
    fn zero_length_round_trip(_x in any::<bool>()) {
        let bytes = encode_elems::<f32>(&[]);
        prop_assert!(bytes.is_empty());
        let mut out: Vec<f32> = Vec::new();
        decode_elems_into(&bytes, &mut out, 0).expect("empty payload is valid");
        let owned: Vec<f32> = decode_elems(&bytes, 0).expect("empty payload is valid");
        prop_assert!(owned.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Golden encodings: every message format on a wire, byte for byte
// ---------------------------------------------------------------------------

mod golden {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    use super::encode_elems;
    use gradient_utility::aggd::proto::{
        decode_hello, decode_reject, encode_fetch_ok, encode_hello, encode_reject, encode_submit,
        Cursor, RejectCode,
    };
    use gradient_utility::aggd::{SchemeSpec, TenantConfig, TenantFaultSpec};
    use gradient_utility::collectives::tcp::{decode_elems, FleetWorker, Registry, TcpTimeouts};
    use gradient_utility::collectives::{
        FramedStream, TelemetryCollector, TelemetryConfig, TelemetryShipper, TELEMETRY_MAGIC,
    };
    use gradient_utility::faults::{Frame, FrameTransport, TcpFrameLinks};
    use gradient_utility::metrics::fleet::{decode_registry, encode_registry};
    use gradient_utility::metrics::Registry as MetricsRegistry;
    use gradient_utility::trace::wire::{
        decode_trace, encode_trace, OwnedCounter, OwnedSpan, OwnedTrace,
    };
    use gradient_utility::trace::{CounterRecord, Phase, SpanRecord, Trace};

    const DEADLINE: Duration = Duration::from_secs(20);

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FNV-1a 64 — the pin for messages too long to read as hex.
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `-0.0`, a NaN with a payload, the smallest subnormal.
    fn odd_floats() -> [f32; 3] {
        [-0.0, f32::from_bits(0x7fc0_1234), f32::from_bits(1)]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn span_wire_trace() {
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    phase: Phase::Compress,
                    name: "topk_select",
                    start_ns: 1_000,
                    dur_ns: 250,
                    round: 3,
                    tid: 1,
                },
                SpanRecord {
                    phase: Phase::Network,
                    name: "ring_all_reduce",
                    start_ns: 2_000,
                    dur_ns: 4_000,
                    round: 3,
                    tid: 0,
                },
            ],
            counters: vec![CounterRecord {
                name: "wire_bytes",
                value: 4096.5,
                at_ns: 7_000,
                round: 3,
                tid: 0,
            }],
        };
        let bytes = encode_trace(&trace);
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            (149, 0x66d2b89d510d669a),
            "{}",
            hex(&bytes)
        );
        let owned = OwnedTrace {
            spans: trace
                .spans
                .iter()
                .map(|s| OwnedSpan {
                    phase: s.phase,
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    round: s.round,
                    tid: s.tid,
                })
                .collect(),
            counters: vec![OwnedCounter {
                name: "wire_bytes".to_string(),
                value: 4096.5,
                at_ns: 7_000,
                round: 3,
                tid: 0,
            }],
        };
        assert_eq!(decode_trace(&bytes).expect("golden trace decodes"), owned);
    }

    fn golden_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("fleet/wire_bytes_total", 8192.0);
        reg.gauge_set("train/loss", -0.5);
        reg.observe("fleet/round_ns", 1_000.0);
        reg.observe("fleet/round_ns", 250_000.0);
        reg
    }

    fn assert_is_golden_registry(reg: &MetricsRegistry) {
        assert_eq!(reg.counter("fleet/wire_bytes_total"), Some(8192.0));
        assert_eq!(reg.gauge("train/loss"), Some(-0.5));
        let h = reg.hist("fleet/round_ns").expect("histogram survives");
        assert_eq!(
            (h.count(), h.min(), h.max()),
            (2, Some(1_000.0), Some(250_000.0))
        );
    }

    const REGISTRY_PIN: (usize, u64) = (155, 0xd7d5128bb60a59b5);

    #[test]
    fn fleet_wire_registry() {
        let bytes = encode_registry(&golden_registry());
        assert_eq!(
            (bytes.len(), fnv64(&bytes)),
            REGISTRY_PIN,
            "{}",
            hex(&bytes)
        );
        let back = decode_registry(&bytes).expect("golden registry decodes");
        assert_is_golden_registry(&back);
        assert_eq!(encode_registry(&back), bytes);
    }

    fn golden_tenant() -> TenantConfig {
        TenantConfig {
            tenant: 7,
            model: 9,
            dim: 128,
            n_workers: 4,
            experiment_seed: 0xdead_beef,
            scheme: SchemeSpec::PowerSgd {
                rank: 2,
                rows: 16,
                cols: 8,
            },
            fault: Some(TenantFaultSpec {
                seed: 3,
                reject_period: 5,
                crash_round: 11,
            }),
        }
    }

    #[test]
    fn aggd_messages() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, &golden_tenant());
        assert_eq!(
            hex(&buf),
            concat!(
                "01",
                "0700000000000000",
                "0900000000000000",
                "8000000000000000",
                "0400000000000000",
                "efbeadde00000000",
                "04",
                "0200000000000000",
                "1000000000000000",
                "0800000000000000",
                "01",
                "0300000000000000",
                "0500000000000000",
                "0b00000000000000",
            )
        );
        let back = decode_hello(&mut Cursor::new(&buf[1..])).expect("golden hello decodes");
        assert_eq!(back, golden_tenant());

        encode_submit(&mut buf, 3, 1, &odd_floats());
        assert_eq!(
            hex(&buf),
            "0203000000000000000100000000000000000000803412c07f01000000"
        );
        let mut c = Cursor::new(&buf[1..]);
        assert_eq!((c.u64().unwrap(), c.u64().unwrap()), (3, 1));
        let mut grad = Vec::new();
        c.f32s_into(3, &mut grad).expect("golden submit payload");
        assert_eq!(bits(&grad), bits(&odd_floats()));

        buf.clear();
        encode_fetch_ok(&mut buf, 3, &odd_floats());
        assert_eq!(hex(&buf), "830300000000000000000000803412c07f01000000");
        let mut c = Cursor::new(&buf[1..]);
        assert_eq!(c.u64().unwrap(), 3);
        c.f32s_into(3, &mut grad).expect("golden estimate payload");
        assert_eq!(bits(&grad), bits(&odd_floats()));

        buf.clear();
        encode_reject(&mut buf, RejectCode::QueueFull, 5, "shard queue full");
        assert_eq!(
            hex(&buf),
            "7f010500000000000000100000000000000073686172642071756575652066756c6c"
        );
        let r = decode_reject(&mut Cursor::new(&buf[1..])).expect("golden reject decodes");
        assert_eq!(
            (r.code, r.retry_after_ms, r.detail.as_str()),
            (RejectCode::QueueFull, 5, "shard queue full")
        );
    }

    #[test]
    fn collective_elements() {
        let f = encode_elems(&odd_floats());
        assert_eq!(hex(&f), "000000803412c07f01000000");
        let back: Vec<f32> = decode_elems(&f, 0).expect("golden f32 payload");
        assert_eq!(bits(&back), bits(&odd_floats()));

        let lanes = [0u32, 1, 0xdead_beef, u32::MAX];
        let u = encode_elems(&lanes);
        assert_eq!(hex(&u), "0000000001000000efbeaddeffffffff");
        let back: Vec<u32> = decode_elems(&u, 0).expect("golden u32 payload");
        assert_eq!(back, lanes);
    }

    const EVENT_HEX: &str = concat!(
        "06",
        "0200000000000000",
        "0c00000000000000",
        "65706f63685f6368616e6765",
        "0c00000000000000",
        "65706f63682031202d3e2032",
    );
    const SNAPSHOT_PIN: (usize, u64) = (172, 0xdf9b05e9936eb74e);

    /// The frames a real [`TelemetryShipper`] puts on a loopback socket after
    /// its handshake, read by a stand-in collector that only answers pings.
    #[test]
    fn telemetry_frames_as_shipped() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let collector = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut magic = [0u8; 4];
            stream.read_exact(&mut magic).expect("magic");
            assert_eq!(magic, TELEMETRY_MAGIC);
            let mut fs = FramedStream::new(stream);
            let mut shipped = Vec::new();
            while shipped.len() < 2 {
                let frame = fs.recv_frame(DEADLINE).expect("shipper frame");
                match frame[0] {
                    0x01 => {
                        let mut pong = vec![0x02];
                        pong.extend_from_slice(&frame[1..9]);
                        pong.extend_from_slice(&0u64.to_le_bytes());
                        fs.send_frame(&pong).expect("pong");
                    }
                    0x03 => assert_eq!(frame[1..9], 11u64.to_le_bytes(), "HELLO names the worker"),
                    _ => shipped.push(frame),
                }
            }
            shipped
        });
        let mut shipper = TelemetryShipper::connect(addr, 11).expect("connect");
        shipper
            .ship_event(2, "epoch_change", "epoch 1 -> 2")
            .expect("event");
        shipper
            .ship_snapshot(2, 5, &golden_registry())
            .expect("snapshot");
        let shipped = collector.join().expect("stand-in collector");
        assert_eq!(hex(&shipped[0]), EVENT_HEX);
        assert_eq!(
            (shipped[1].len(), fnv64(&shipped[1])),
            SNAPSHOT_PIN,
            "{}",
            hex(&shipped[1])
        );
        // SNAPSHOT is `[tag][rank][epoch]` in front of the registry encoding.
        assert_eq!(shipped[1][0], 0x04);
        assert_eq!(shipped[1][1..9], 2u64.to_le_bytes());
        assert_eq!(shipped[1][9..17], 5u64.to_le_bytes());
        assert_eq!(shipped[1][17..], encode_registry(&golden_registry())[..]);

        // The same bytes, fed to the real collector, decode to the same values.
        let collector = TelemetryCollector::spawn(TelemetryConfig::default()).expect("collector");
        let mut stream = TcpStream::connect(collector.addr()).expect("dial");
        stream.write_all(&TELEMETRY_MAGIC).expect("magic");
        let mut fs = FramedStream::new(stream);
        let mut hello = vec![0x03];
        for v in [11u64, 0, 0] {
            hello.extend_from_slice(&v.to_le_bytes());
        }
        fs.send_frame(&hello).expect("hello");
        fs.send_frame(&shipped[0]).expect("event");
        fs.send_frame(&shipped[1]).expect("snapshot");
        let t0 = Instant::now();
        while collector.aggregator().member(11).map(|m| m.snapshots) != Some(1) {
            assert!(t0.elapsed() < DEADLINE, "snapshot never applied");
            std::thread::sleep(Duration::from_millis(5));
        }
        let event = collector
            .events()
            .into_iter()
            .find(|e| e.kind == "epoch_change")
            .expect("event decoded");
        assert_eq!((event.worker_id, event.rank), (11, 2));
        assert_eq!(event.detail, "epoch 1 -> 2");
        let agg = collector.aggregator();
        let member = agg.member(11).expect("member");
        assert_eq!((member.rank, member.epoch), (2, 5));
        assert_is_golden_registry(&member.registry);
        assert_eq!(collector.malformed(), 0);
    }

    /// A `gcs-faults` Data and Ack frame as they cross a two-rank mesh, and
    /// the same bytes decoded back by the carrier.
    #[test]
    fn fault_layer_frames() {
        const DATA_HEX: &str = "000700000000000000000000803412c07f01000000";
        const ACK_HEX: &str = "012a00000000000000";
        let registry = Registry::spawn(2).expect("registry");
        let addr = registry.addr();
        let ranks: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let rs = w.next_round(0).expect("round");
                    let peer = 1 - rs.rank;
                    if rs.rank == 0 {
                        let mut links = TcpFrameLinks::<f32>::new(w.mesh_mut());
                        let data = Frame::Data {
                            seq: 7,
                            payload: odd_floats().to_vec(),
                        };
                        links.send_frame(peer, data).expect("data");
                        links.send_frame(peer, Frame::Ack { seq: 42 }).expect("ack");
                        // The peer echoes the pinned bytes; decode them.
                        let mut back = links.recv_frames(peer, DEADLINE).expect("echoed data");
                        back.extend(links.recv_frames(peer, DEADLINE).expect("echoed ack"));
                        match &back[..] {
                            [Frame::Data { seq: 7, payload }, Frame::Ack { seq: 42 }] => {
                                assert_eq!(bits(payload), bits(&odd_floats()));
                            }
                            other => panic!("decoded {other:?}"),
                        }
                    } else {
                        let mesh = w.mesh_mut();
                        let data = mesh.recv_raw(peer).expect("raw data");
                        let ack = mesh.recv_raw(peer).expect("raw ack");
                        assert_eq!(hex(&data), DATA_HEX);
                        assert_eq!(hex(&ack), ACK_HEX);
                        mesh.send_raw(peer, &data).expect("echo data");
                        mesh.send_raw(peer, &ack).expect("echo ack");
                    }
                    w.leave().expect("leave");
                })
            })
            .collect();
        for h in ranks {
            h.join().expect("rank thread");
        }
        registry.shutdown();
    }
}
