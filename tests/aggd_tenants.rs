//! Tenant-conformance differential suite for the aggregation daemon.
//!
//! The daemon hosts many tenants' compression schemes behind a shared
//! protocol, shard pool, and socket plane — none of which may change a
//! single bit of any tenant's estimates. Two pins:
//!
//! * **Conformance**: N concurrent tenants, each running one of the four
//!   scheme families through the daemon with interleaved submits, produce
//!   estimates bitwise identical to the same scheme run standalone
//!   (`aggregate_round` on a twin instance, the same reference the
//!   transport-identity suites use). Proptest drives scheme × tenant count
//!   × interleaving seed.
//! * **Isolation**: one tenant's injected fault plan, server-side crash
//!   plan, or oversized frame yields *typed* errors on that tenant only —
//!   every healthy tenant's bits stay identical to standalone and the
//!   daemon keeps serving.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gradient_utility::aggd::proto::splitmix64;
use gradient_utility::aggd::{
    AggDaemon, AggdConfig, ClientError, RejectCode, SchemeSpec, TenantClient, TenantConfig,
    TenantFaultSpec,
};
use gradient_utility::core::scheme::{CompressionScheme, RoundContext};
use proptest::prelude::*;

const DEADLINE: Duration = Duration::from_secs(20);

fn daemon() -> AggDaemon {
    AggDaemon::spawn(AggdConfig {
        shards: 2,
        ..AggdConfig::default()
    })
    .expect("daemon spawn")
}

/// The four families, parameterized small enough for many proptest cases.
fn family_spec(family: usize, dim: usize) -> SchemeSpec {
    match family % 4 {
        0 => SchemeSpec::TopK {
            bits_x100: 200,
            error_feedback: true,
        },
        1 => SchemeSpec::Thc { q: 4 },
        2 => SchemeSpec::Qsgd { q: 4 },
        _ => SchemeSpec::PowerSgd {
            rank: 2,
            rows: 8,
            cols: (dim / 8) as u32,
        },
    }
}

fn tenant_cfg(id: u64, family: usize, dim: usize, n_workers: usize) -> TenantConfig {
    TenantConfig {
        tenant: id,
        model: 1,
        dim,
        n_workers,
        experiment_seed: 1000 + id,
        scheme: family_spec(family, dim),
        fault: None,
    }
}

fn grad(tenant: u64, round: u64, rank: usize, dim: usize) -> Vec<f32> {
    let base = splitmix64(tenant ^ round.rotate_left(21) ^ (rank as u64) << 9);
    (0..dim)
        .map(|i| (splitmix64(base ^ i as u64) % 4096) as f32 / 2048.0 - 1.0)
        .collect()
}

/// Standalone reference: the same scheme fed the same grads in the same
/// round order, no daemon involved.
fn standalone_estimates(cfg: &TenantConfig, rounds: u64) -> Vec<Vec<f32>> {
    let mut scheme: Box<dyn CompressionScheme + Send> = cfg
        .scheme
        .build(cfg.n_workers, cfg.dim)
        .expect("build reference");
    (0..rounds)
        .map(|round| {
            let grads: Vec<Vec<f32>> = (0..cfg.n_workers)
                .map(|rank| grad(cfg.tenant, round, rank, cfg.dim))
                .collect();
            scheme
                .aggregate_round(&grads, &RoundContext::new(cfg.experiment_seed, round))
                .mean_estimate
        })
        .collect()
}

/// Drives `tenants` concurrently through one daemon with an interleaved
/// submit schedule derived from `order_seed`, and asserts every fetched
/// estimate equals the standalone reference bitwise.
fn assert_conformance(tenants: &[TenantConfig], rounds: u64, order_seed: u64) {
    let daemon = daemon();
    // One client per (tenant, rank).
    let mut clients: Vec<Vec<TenantClient>> = tenants
        .iter()
        .map(|cfg| {
            (0..cfg.n_workers)
                .map(|_| TenantClient::connect(daemon.addr(), cfg, DEADLINE).expect("connect"))
                .collect()
        })
        .collect();
    let references: Vec<Vec<Vec<f32>>> = tenants
        .iter()
        .map(|cfg| standalone_estimates(cfg, rounds))
        .collect();

    // Interleave: per round, submit every (tenant, rank) pair in a
    // seed-shuffled order, then fetch in a different shuffled order.
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut pairs: Vec<(usize, usize)> = tenants
            .iter()
            .enumerate()
            .flat_map(|(t, cfg)| (0..cfg.n_workers).map(move |r| (t, r)))
            .collect();
        shuffle(&mut pairs, splitmix64(order_seed ^ round));
        for (t, rank) in pairs.iter().copied() {
            let g = grad(tenants[t].tenant, round, rank, tenants[t].dim);
            clients[t][rank]
                .submit(round, rank, &g)
                .unwrap_or_else(|e| panic!("tenant {t} rank {rank} submit: {e}"));
        }
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        shuffle(&mut order, splitmix64(order_seed ^ round ^ 0xF00D));
        for t in order {
            fetch_ready(&mut clients[t][0], round, &mut out);
            assert_eq!(
                out, references[t][round as usize],
                "tenant {t} round {round} diverged from standalone"
            );
        }
    }
    for tenant_clients in clients {
        for c in tenant_clients {
            c.bye().expect("bye");
        }
    }
}

/// Fetch with NotReady polling (all ranks submitted, so folds are imminent).
fn fetch_ready(c: &mut TenantClient, round: u64, out: &mut Vec<f32>) {
    for _ in 0..10_000 {
        match c.fetch_into(round, out) {
            Ok(()) => return,
            Err(ClientError::Rejected(r)) if r.code == RejectCode::NotReady => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("fetch round {round}: {e}"),
        }
    }
    panic!("round {round} never folded");
}

fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = splitmix64(seed);
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scheme family × tenant count × interleaving: daemon == standalone,
    /// bitwise, for every tenant.
    #[test]
    fn concurrent_tenants_match_standalone(
        n_tenants in 1usize..5,
        family0 in 0usize..4,
        order_seed in any::<u64>(),
    ) {
        let tenants: Vec<TenantConfig> = (0..n_tenants)
            .map(|t| {
                // Rotate families so multi-tenant cases mix them.
                let dim = 16 + 8 * (t % 3);
                tenant_cfg(10 + t as u64, family0 + t, dim, 1 + t % 3)
            })
            .collect();
        assert_conformance(&tenants, 4, order_seed);
    }
}

/// All four families at once, multi-worker, fixed seed — the deterministic
/// anchor the proptest cases orbit.
#[test]
fn four_families_conform_concurrently() {
    let tenants: Vec<TenantConfig> = (0..4)
        .map(|f| tenant_cfg(100 + f as u64, f, 32, 2))
        .collect();
    assert_conformance(&tenants, 5, 0xD1CE);
}

/// Isolation: a faulty tenant (injected rejects), a crashing tenant
/// (server-side crash plan), and an attacker sending an oversized frame
/// never perturb a healthy tenant's bits — and each failure is typed.
#[test]
fn faults_crashes_and_oversized_frames_stay_isolated() {
    let daemon = daemon();
    let addr = daemon.addr();

    // Healthy tenant, checked bitwise at the end.
    let healthy = tenant_cfg(1, 0, 32, 1);
    let mut healthy_client = TenantClient::connect(addr, &healthy, DEADLINE).expect("connect");
    let reference = standalone_estimates(&healthy, 6);

    // Faulty tenant: every submit of round 2 is fault-injected.
    let mut faulty = tenant_cfg(2, 1, 32, 1);
    faulty.fault = Some(TenantFaultSpec {
        seed: 5,
        reject_period: 1, // every submit faults
        crash_round: u64::MAX,
    });
    let mut faulty_client = TenantClient::connect(addr, &faulty, DEADLINE).expect("connect");

    // Crashing tenant: server closes its sessions at round 1.
    let mut crasher = tenant_cfg(3, 2, 32, 1);
    crasher.fault = Some(TenantFaultSpec {
        seed: 0,
        reject_period: 0,
        crash_round: 1,
    });
    let mut crash_client = TenantClient::connect(addr, &crasher, DEADLINE).expect("connect");

    let mut out = Vec::new();
    for round in 0..6u64 {
        let g = grad(healthy.tenant, round, 0, 32);
        healthy_client.submit(round, 0, &g).expect("healthy submit");

        // Faulty tenant gets a typed FaultInjected on every submit.
        let fg = grad(faulty.tenant, round, 0, 32);
        match faulty_client.submit(round, 0, &fg) {
            Err(ClientError::Rejected(r)) => {
                assert_eq!(r.code, RejectCode::FaultInjected, "round {round}");
            }
            other => panic!("faulty tenant submit round {round}: {other:?}"),
        }

        // The crasher runs until its crash round; after that its
        // connection is gone (typed as Closed), never anything else.
        if round == 0 {
            let cg = grad(crasher.tenant, round, 0, 32);
            crash_client.submit(round, 0, &cg).expect("crasher round 0");
            fetch_ready(&mut crash_client, 0, &mut out);
        } else if round == 1 {
            let cg = grad(crasher.tenant, round, 0, 32);
            match crash_client.submit(round, 0, &cg) {
                Err(ClientError::Closed) | Err(ClientError::TimedOut) => {}
                other => panic!("crasher should lose its session, got {other:?}"),
            }
        }

        fetch_ready(&mut healthy_client, round, &mut out);
        assert_eq!(
            out, reference[round as usize],
            "healthy tenant diverged at round {round} amid faults"
        );
    }

    // Oversized frame: a fresh session blasts a frame beyond the session
    // bound; it gets a typed BadFrame + close, the daemon keeps serving.
    let mut attacker =
        TenantClient::connect(addr, &tenant_cfg(4, 3, 32, 1), DEADLINE).expect("connect");
    let huge = vec![0u8; 4 * (1 << 16) + 256];
    attacker
        .raw_stream()
        .send_frame(&huge)
        .expect("send oversized");
    match attacker.raw_stream().recv_frame(DEADLINE) {
        Ok(frame) => {
            assert_eq!(frame[0], 0x7f, "oversized frame must draw a REJECT");
            assert_eq!(frame[1], RejectCode::BadFrame as u8);
        }
        Err(e) => panic!("expected typed reject, got {e:?}"),
    }

    // Healthy tenant still bit-exact after the attack.
    let g = grad(healthy.tenant, 6, 0, 32);
    let mut scheme = healthy.scheme.build(1, 32).expect("reference");
    // Rebuild the reference through round 6.
    let mut want = Vec::new();
    for round in 0..7u64 {
        let rg = grad(healthy.tenant, round, 0, 32);
        want = scheme
            .aggregate_round(&[rg], &RoundContext::new(healthy.experiment_seed, round))
            .mean_estimate;
    }
    healthy_client.submit(6, 0, &g).expect("post-attack submit");
    fetch_ready(&mut healthy_client, 6, &mut out);
    assert_eq!(out, want, "healthy tenant perturbed by oversized frame");

    // Metrics surfaced the faults on the faulty tenant only.
    let reg = daemon.registry();
    assert!(reg.counter("aggd/tenant/2:1/faults_total").unwrap_or(0.0) >= 6.0);
    assert_eq!(reg.counter("aggd/tenant/1:1/faults_total"), Some(0.0));
}

/// Raw HTTP/1.1 scrape of the daemon's port — a real socket client, not a
/// call into the daemon's own accessors.
fn http_scrape(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: aggd\r\nConnection: close\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    (head.to_string(), body.to_string())
}

/// The metric names of a Prometheus text exposition.
fn metric_names(exposition: &str) -> BTreeSet<&str> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split([' ', '{']).next())
        .collect()
}

/// The daemon's port answers `GET /metrics` with the same registry
/// `prometheus()` renders in process, and counts the scrape.
#[test]
fn http_scrape_serves_the_daemon_registry() {
    let daemon = daemon();
    let cfg = tenant_cfg(7, 0, 32, 1);
    let mut client = TenantClient::connect(daemon.addr(), &cfg, DEADLINE).expect("connect");
    let mut out = Vec::new();
    for round in 0..3u64 {
        let g = grad(cfg.tenant, round, 0, 32);
        client.run_round(round, 0, &g, &mut out).expect("round");
    }

    let (head, body) = http_scrape(daemon.addr());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(content_length, body.len());
    let names = metric_names(&body);
    assert!(names.contains("gcs_aggd_sessions_total"), "{body}");
    assert_eq!(names, metric_names(&daemon.prometheus()));
    assert_eq!(daemon.registry().counter("aggd/scrapes_total"), Some(1.0));
}
