//! Per-layer measurements shared by the workloads: reading spans back out
//! of a recorded trace, and timing single public kernel / collective /
//! framing calls at the workload's own sizes.
//!
//! Every number here is a span the benchmark opens around one public call,
//! so it stays defined when a later change renames a span inside the
//! program.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gcs_collectives::{
    all_gather_into, decode_elems_into, encode_elems_into, ring_all_reduce_into, F32Sum,
    FramedStream, RingScratch, Traffic,
};
use gcs_tensor::bitpack::PackedIntVec;
use gcs_tensor::hadamard::{padded_len, rht_forward, rht_inverse};
use gcs_tensor::matrix::{matmul_into, orthonormalize_columns_with, GsScratch, Matrix};
use gcs_tensor::rng::SharedSeed;
use gcs_tensor::vector::{top_k_indices_into, TopKScratch};
use gcs_trace::{Phase, Trace};

use crate::inputs::uniform_vec;
use crate::report::Outcome;
use crate::stats::Sample;

/// Opens a benchmark-side span. The phase only colours the Chrome trace.
pub fn span(name: &'static str) -> gcs_trace::Span {
    gcs_trace::span(Phase::Compute, name)
}

/// Span durations of a recorded trace, grouped by span name.
pub struct SpanTable {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl SpanTable {
    /// Groups `trace`'s spans by name.
    pub fn from_trace(trace: &Trace) -> SpanTable {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &trace.spans {
            by_name.entry(s.name).or_default().push(s.dur_ns as f64);
        }
        SpanTable { by_name }
    }

    /// Durations (ns) of every span called `name`.
    pub fn sample(&self, name: &str) -> Sample {
        Sample::new(self.by_name.get(name).cloned().unwrap_or_default())
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Summed *self* time (ns) of the spans called `name`: each span's duration
/// minus the part covered by spans nested directly inside it on the same
/// thread.
pub fn self_time_ns(trace: &Trace, name: &str) -> f64 {
    let mut by_tid: BTreeMap<u64, Vec<(u64, u64, &str)>> = BTreeMap::new();
    for s in &trace.spans {
        by_tid
            .entry(s.tid)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns, s.name));
    }
    let mut total = 0.0;
    for spans in by_tid.values_mut() {
        // Parents sort before the children they enclose.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        // Stack of (end, name, self_ns) for the currently open ancestors.
        let mut open: Vec<(u64, &str, f64)> = Vec::new();
        let mut close = |open: &mut Vec<(u64, &str, f64)>, until: u64| {
            while open.last().is_some_and(|top| top.0 <= until) {
                let (_, n, self_ns) = open.pop().expect("non-empty");
                if n == name {
                    total += self_ns;
                }
            }
        };
        for &(start, end, n) in spans.iter() {
            close(&mut open, start);
            if let Some(parent) = open.last_mut() {
                parent.2 -= (end - start) as f64;
            }
            open.push((end, n, (end - start) as f64));
        }
        close(&mut open, u64::MAX);
    }
    total
}

/// Calls `op` under a span called `name` until `budget` is spent (at least
/// 5 and at most 400 calls) and returns the per-call durations in ns. The
/// first call warms buffers and is not recorded.
pub fn time_calls(name: &'static str, budget: Duration, mut op: impl FnMut()) -> Sample {
    op();
    let mut durs = Vec::new();
    let started = Instant::now();
    while durs.len() < 5 || (started.elapsed() < budget && durs.len() < 400) {
        let t0 = Instant::now();
        {
            let _s = span(name);
            op();
        }
        durs.push(t0.elapsed().as_nanos() as f64);
    }
    Sample::new(durs)
}

/// Time one kernel call may take out of the traced run.
const KERNEL_BUDGET: Duration = Duration::from_millis(120);

/// Shapes the tensor-layer calls are timed at: the workload's gradient
/// length, its top-k `k`, and the PowerSGD factor shape it uses.
#[derive(Clone, Copy, Debug)]
pub struct KernelShapes {
    /// Gradient length.
    pub d: usize,
    /// Entries TopK keeps at this length.
    pub topk_k: usize,
    /// `(rows, cols)` of the largest matrix PowerSGD factors.
    pub matrix: (usize, usize),
    /// PowerSGD rank.
    pub rank: usize,
}

/// Times the `gcs-tensor` kernels the schemes are built from, each around
/// its public entry point, and records the `tensor.*` metrics.
pub fn tensor_layers(out: &mut Outcome, shapes: &KernelShapes, seed: u64) {
    let d = shapes.d;
    let grad = uniform_vec(seed, 0x7e, d);
    let per_elem = |s: &Sample| s.median() / d as f64;

    let padded = padded_len(d);
    let full_iters = padded.trailing_zeros() as usize;
    let shared = SharedSeed::new(seed);
    let mut rot = grad.clone();
    rot.resize(padded, 0.0);
    let fwd = time_calls("tensor.rht_forward", KERNEL_BUDGET, || {
        rht_forward(&mut rot, full_iters, shared);
    });
    out.metric("tensor.rht_forward_ns_per_elem", per_elem(&fwd), fwd.n());
    let inv = time_calls("tensor.rht_inverse", KERNEL_BUDGET, || {
        rht_inverse(&mut rot, full_iters, shared);
    });
    out.metric("tensor.rht_inverse_ns_per_elem", per_elem(&inv), inv.n());

    let mut scratch = TopKScratch::new();
    let mut picked = Vec::new();
    let sel = time_calls("tensor.topk_select", KERNEL_BUDGET, || {
        top_k_indices_into(&grad, shapes.topk_k, &mut scratch, &mut picked);
    });
    out.metric("tensor.topk_select_ns_per_elem", per_elem(&sel), sel.n());

    // 4-bit lanes, the width every THC variant in the mix quantizes to.
    let mut packed = PackedIntVec::zeros(4, d);
    let pack = time_calls("tensor.quantize_pack", KERNEL_BUDGET, || {
        packed.reset(4, d);
        packed.pack_with(|i| (grad[i] * 7.0) as i32);
    });
    out.metric(
        "tensor.quantize_pack_ns_per_elem",
        per_elem(&pack),
        pack.n(),
    );
    let other = packed.clone();
    let add = time_calls("tensor.add_saturating", KERNEL_BUDGET, || {
        packed.add_saturating(&other);
    });
    out.metric("tensor.add_saturating_ns_per_elem", per_elem(&add), add.n());

    let (rows, cols) = shapes.matrix;
    let rank = shapes.rank;
    let m = uniform_vec(seed, 0x7f, rows * cols);
    let q = uniform_vec(seed, 0x80, cols * rank);
    let mut p = vec![0.0f32; rows * rank];
    let mm = time_calls("tensor.matmul", KERNEL_BUDGET, || {
        matmul_into(&m, rows, cols, &q, rank, &mut p);
    });
    out.metric("tensor.matmul_ms", mm.median() / 1e6, mm.n());
    let mut gs = GsScratch::new();
    let fresh = p.clone();
    let mut pm = Matrix::from_vec(rows, rank, p);
    let orth = time_calls("tensor.orthonormalize", KERNEL_BUDGET, || {
        pm.data_mut().copy_from_slice(&fresh);
        orthonormalize_columns_with(&mut pm, &mut gs);
    });
    out.metric("tensor.orthonormalize_us", orth.median() / 1e3, orth.n());

    let mut halves = grad.clone();
    let f16 = time_calls("tensor.f16_roundtrip", KERNEL_BUDGET, || {
        gcs_tensor::half::round_trip_f16(&mut halves);
    });
    out.metric("tensor.f16_roundtrip_ns_per_elem", per_elem(&f16), f16.n());
}

/// Times the in-memory collectives every scheme aggregates through.
pub fn mem_collective_layers(out: &mut Outcome, grads: &[Vec<f32>]) {
    let d = grads[0].len();
    let mut bufs: Vec<Vec<f32>> = grads.to_vec();
    let mut scratch = RingScratch::new();
    let mut traffic = Traffic::default();
    let ring = time_calls("collectives.mem_ring", KERNEL_BUDGET, || {
        for (b, g) in bufs.iter_mut().zip(grads) {
            b.copy_from_slice(g);
        }
        ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut scratch, &mut traffic);
    });
    out.metric(
        "collectives.mem_ring_ns_per_elem",
        ring.median() / d as f64,
        ring.n(),
    );
    let mut gathered = Vec::new();
    let gather = time_calls("collectives.mem_all_gather", KERNEL_BUDGET, || {
        all_gather_into(grads, 4.0, &mut gathered, &mut traffic);
    });
    out.metric(
        "collectives.mem_all_gather_ns_per_elem",
        gather.median() / d as f64,
        gather.n(),
    );
}

/// Times the TCP wire codec on `data`.
pub fn tcp_codec_layers(out: &mut Outcome, data: &[f32]) {
    let mut bytes = Vec::new();
    let enc = time_calls("collectives.tcp_encode", KERNEL_BUDGET, || {
        encode_elems_into(data, &mut bytes);
    });
    out.metric(
        "collectives.tcp_encode_ns_per_elem",
        enc.median() / data.len() as f64,
        enc.n(),
    );
    let mut back = vec![0.0f32; data.len()];
    let dec = time_calls("collectives.tcp_decode", KERNEL_BUDGET, || {
        decode_elems_into(&bytes, &mut back, 0).expect("own encoding decodes");
    });
    out.metric(
        "collectives.tcp_decode_ns_per_elem",
        dec.median() / data.len() as f64,
        dec.n(),
    );
}

/// Request/reply round trip of one 16-byte frame over a loopback
/// `FramedStream` pair: the fixed cost under every daemon request.
pub fn tcp_frame_rtt(out: &mut Outcome) -> Result<(), String> {
    const PINGS: usize = 2000;
    let io = |e: std::io::Error| format!("frame rtt socket: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let deadline = Duration::from_secs(5);
    let rtts = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let echo = scope.spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            let mut fs = FramedStream::new(stream);
            // One warm-up ping precedes the timed ones.
            for _ in 0..=PINGS {
                let frame = fs
                    .recv_frame(deadline)
                    .map_err(|e| format!("echo recv: {e:?}"))?;
                fs.send_frame(&frame).map_err(io)?;
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut fs = FramedStream::new(stream);
        let payload = [0x5au8; 16];
        let mut rtts = Vec::with_capacity(PINGS);
        for i in 0..=PINGS {
            let t0 = Instant::now();
            {
                let _s = span("collectives.tcp_frame_rtt");
                fs.send_frame(&payload).map_err(io)?;
                fs.recv_frame(deadline)
                    .map_err(|e| format!("ping recv: {e:?}"))?;
            }
            if i > 0 {
                rtts.push(t0.elapsed().as_nanos() as f64);
            }
        }
        echo.join().map_err(|_| "echo thread panicked")??;
        Ok(rtts)
    })?;
    let rtt = Sample::new(rtts);
    out.metric("collectives.tcp_frame_rtt_us", rtt.median() / 1e3, rtt.n());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_trace::SpanRecord;

    fn rec(name: &'static str, start_ns: u64, dur_ns: u64, tid: u64) -> SpanRecord {
        SpanRecord {
            phase: Phase::Compute,
            name,
            start_ns,
            dur_ns,
            round: 0,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let trace = Trace {
            spans: vec![
                rec("round", 0, 100, 0),
                rec("compute", 5, 40, 0),
                rec("kernel", 10, 20, 0), // grandchild: charged to compute
                rec("aggregate", 50, 30, 0),
                rec("worker", 0, 90, 1), // another thread: not a child
                rec("round", 200, 50, 0),
            ],
            counters: Vec::new(),
        };
        assert_eq!(self_time_ns(&trace, "round"), 30.0 + 50.0);
        assert_eq!(self_time_ns(&trace, "compute"), 20.0);
        assert_eq!(self_time_ns(&trace, "worker"), 90.0);
        assert_eq!(self_time_ns(&trace, "absent"), 0.0);
        let table = SpanTable::from_trace(&trace);
        assert_eq!(table.total_ns("round"), 150.0);
        assert_eq!(table.sample("round").n(), 2);
        assert_eq!(table.sample("absent").n(), 0);
    }
}
