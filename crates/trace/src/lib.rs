//! # gcs-trace
//!
//! A zero-dependency, low-overhead structured profiler for the gradient
//! compression stack — the *measured* counterpart to the analytic cost
//! models in `gcs-gpusim`/`gcs-netsim`.
//!
//! The paper's §5 argument is that compression must be judged by measured
//! end-to-end behaviour: its PowerSGD profiling (Table 9) found Gram–Schmidt
//! dominating step time, something no throughput formula predicted. This
//! crate lets the repo produce that kind of evidence about itself:
//!
//! * **Scoped spans** ([`span`]) with monotonic timing, classified into the
//!   step [`Phase`]s the throughput model reasons about (`compute`,
//!   `compress`, `reduce`, `network`, `decompress`, `optimizer`, `eval`).
//! * **Per-round counters** ([`counter`]) for wire bytes, achieved
//!   bits/coordinate, error-feedback residual norms, and vNMSE samples.
//! * A **thread-aware recorder**: spans emitted on `gcs-tensor::parallel`
//!   worker threads land in a thread-local buffer and are flushed to the
//!   global sink when the scoped thread exits, so recording never
//!   synchronizes inside a kernel and cannot perturb the deterministic
//!   fork-join runtime (tracing only *reads* clocks; no result depends on
//!   it).
//! * Two exporters: Chrome `trace_event` JSON ([`Trace::to_chrome_json`],
//!   loadable in `about:tracing` / Perfetto) and a text report
//!   ([`Trace::report`]) reproducing the paper's Table 9-style per-op
//!   breakdown.
//!
//! ## Overhead contract
//!
//! Recording is **off by default**. Every probe starts with one relaxed
//! atomic load; until [`enable`] is called, [`span`] returns an inert guard
//! and [`counter`] returns immediately — the `trace_overhead` bench in
//! `gcs-bench` pins this at well under 2% of an aggregation round.
//!
//! ## Usage
//!
//! ```
//! use gcs_trace::{span, counter, Phase};
//!
//! let trace = gcs_trace::with_recording(|| {
//!     gcs_trace::set_round(0);
//!     {
//!         let _s = span(Phase::Compress, "gram_schmidt");
//!         // ... work ...
//!     }
//!     counter("wire_bytes", 4096.0);
//! });
//! let report = trace.report();
//! assert_eq!(report.op_calls("gram_schmidt"), 1);
//! println!("{}", report.render());
//! ```

pub mod bytes;
mod chrome;
mod report;
pub mod wire;

pub use chrome::to_chrome_json;
pub use report::{CounterStat, OpStat, Report};
pub use wire::{merged_chrome_json, OwnedCounter, OwnedSpan, OwnedTrace, RankTrace};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The step phases the evaluation framework reasons about. Each span is
/// tagged with one, so measured per-phase totals line up with the analytic
/// `StepBreakdown { compute, compression, communication }` decomposition
/// (`reduce` is communication; `compress` + `decompress` are compression).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Model forward/backward (gradient computation).
    Compute,
    /// Encoder-side compression work (selection, quantization, matmuls,
    /// orthogonalization, error-feedback bookkeeping).
    Compress,
    /// Reduction arithmetic that is part of a scheme's aggregation logic
    /// rather than a wire-level collective (kept distinct from [`Phase::Network`]
    /// so compression-side folding never inflates the network share).
    Reduce,
    /// Wire-level collective communication and transports (all-reduce,
    /// all-gather, parameter server, flow simulation). Network time in the
    /// `StepBreakdown` sense is `Reduce + Network`.
    Network,
    /// Decoder-side work (dequantize, inverse rotation, scatter, estimate
    /// reconstruction).
    Decompress,
    /// Optimizer step on the aggregated gradient.
    Optimizer,
    /// Task-metric evaluation and vNMSE probes.
    Eval,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 7] = [
        Phase::Compute,
        Phase::Compress,
        Phase::Reduce,
        Phase::Network,
        Phase::Decompress,
        Phase::Optimizer,
        Phase::Eval,
    ];

    /// Stable lower-case name (also the Chrome trace category).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Compress => "compress",
            Phase::Reduce => "reduce",
            Phase::Network => "network",
            Phase::Decompress => "decompress",
            Phase::Optimizer => "optimizer",
            Phase::Eval => "eval",
        }
    }

    /// Inverse of [`Phase::as_str`]; `None` for unknown names. The wire
    /// codec uses this to reject corrupt phase tags instead of guessing.
    pub fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == name)
    }
}

/// One completed span: a named operation in a phase, on a thread, in a
/// round, with monotonic start/duration in nanoseconds since [`enable`].
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Step phase this operation belongs to.
    pub phase: Phase,
    /// Operation name (static so probes never allocate).
    pub name: &'static str,
    /// Nanoseconds from the recorder origin to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Training round the span was recorded in (see [`set_round`]).
    pub round: u64,
    /// Recorder-assigned thread id (0 = first recording thread).
    pub tid: u64,
}

/// One counter sample: a named scalar attributed to a round.
#[derive(Clone, Copy, Debug)]
pub struct CounterRecord {
    /// Counter name.
    pub name: &'static str,
    /// Sample value.
    pub value: f64,
    /// Nanoseconds from the recorder origin to the sample.
    pub at_ns: u64,
    /// Training round the sample was recorded in.
    pub round: u64,
    /// Recorder-assigned thread id.
    pub tid: u64,
}

/// Everything recorded between [`enable`] and [`take`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Completed spans, in flush order (aggregate before relying on order).
    pub spans: Vec<SpanRecord>,
    /// Counter samples, in flush order.
    pub counters: Vec<CounterRecord>,
}

impl Trace {
    /// Chrome `trace_event` JSON (object form, `{"traceEvents": [...]}`),
    /// loadable in `about:tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Aggregates spans/counters into a per-op [`Report`].
    pub fn report(&self) -> Report {
        Report::from_trace(self)
    }
}

// ---------------------------------------------------------------------------
// Recorder internals.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ROUND: AtomicU64 = AtomicU64::new(0);

/// The process-wide monotonic origin every timestamp in this crate is
/// relative to — span `start_ns`, counter `at_ns`, and [`now_ns`] all share
/// it, which is what makes a clock-offset estimated over [`now_ns`]
/// applicable to shipped span timestamps. Pinned on first use.
static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since this process's monotonic origin — the exact
/// timebase of recorded span timestamps. Readable while recording is off,
/// so transports can run clock-alignment handshakes (ping/pong offset
/// estimation) against the same clock spans use.
pub fn now_ns() -> u64 {
    Instant::now().duration_since(origin()).as_nanos() as u64
}

mod recorder {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Mutex;

    pub(super) struct Sink {
        pub spans: Vec<SpanRecord>,
        pub counters: Vec<CounterRecord>,
    }

    pub(super) static SINK: Mutex<Sink> = Mutex::new(Sink {
        spans: Vec::new(),
        counters: Vec::new(),
    });

    static NEXT_TID: AtomicU64 = AtomicU64::new(0);

    pub(super) fn elapsed_ns(at: Instant) -> u64 {
        at.duration_since(super::origin()).as_nanos() as u64
    }

    /// Per-thread buffer: probes append here without any synchronization;
    /// the drop glue (thread exit — including the scoped workers of
    /// `gcs-tensor::parallel`) and explicit flushes move the batch into the
    /// global sink under one short lock.
    pub(super) struct LocalBuf {
        pub tid: u64,
        pub spans: Vec<SpanRecord>,
        pub counters: Vec<CounterRecord>,
    }

    impl LocalBuf {
        fn new() -> LocalBuf {
            LocalBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                spans: Vec::new(),
                counters: Vec::new(),
            }
        }

        pub(super) fn flush(&mut self) {
            if self.spans.is_empty() && self.counters.is_empty() {
                return;
            }
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.spans.append(&mut self.spans);
            sink.counters.append(&mut self.counters);
        }
    }

    impl Drop for LocalBuf {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        pub(super) static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
    }

    /// Runs `f` on this thread's buffer unless the thread is shutting down.
    pub(super) fn with_local(f: impl FnOnce(&mut LocalBuf)) {
        let _ = LOCAL.try_with(|b| f(&mut b.borrow_mut()));
    }
}

/// Whether recording is currently on. One relaxed atomic load — the entire
/// cost of a probe while tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (also pins the monotonic origin).
pub fn enable() {
    origin();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-buffered events are kept until [`take`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Tags subsequently recorded spans/counters with `round`. Shared across
/// threads: the fork-join workers of a round inherit it automatically.
///
/// The store is unconditional (one relaxed atomic store, once per round) so
/// that other readers — `gcs_metrics::FlightRecorder::record_event` — can
/// read [`current_round`] even when span recording is off.
#[inline]
pub fn set_round(round: u64) {
    ROUND.store(round, Ordering::Relaxed);
}

/// The round most recently announced via [`set_round`] (0 before any call).
#[inline]
pub fn current_round() -> u64 {
    ROUND.load(Ordering::Relaxed)
}

/// An in-flight scoped span; records itself on drop. Inert (and cost-free
/// beyond one atomic load) while recording is disabled.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    live: Option<(Phase, &'static str, Instant)>,
}

/// Opens a scoped span. Hold the returned guard for the duration of the
/// operation:
///
/// ```
/// # use gcs_trace::{span, Phase};
/// let _s = span(Phase::Compress, "topk_select");
/// // ... the work being measured ...
/// ```
#[inline]
pub fn span(phase: Phase, name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some((phase, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((phase, name, start)) = self.live.take() else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = recorder::elapsed_ns(start);
        let round = ROUND.load(Ordering::Relaxed);
        recorder::with_local(|b| {
            b.spans.push(SpanRecord {
                phase,
                name,
                start_ns,
                dur_ns,
                round,
                tid: b.tid,
            });
        });
    }
}

/// Records one sample of counter `name`. No-op while disabled.
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if enabled() {
        let at_ns = recorder::elapsed_ns(Instant::now());
        let round = ROUND.load(Ordering::Relaxed);
        recorder::with_local(|b| {
            b.counters.push(CounterRecord {
                name,
                value,
                at_ns,
                round,
                tid: b.tid,
            });
        });
    }
}

/// Flushes the calling thread's buffer into the global sink. [`take`] calls
/// this for the current thread; worker threads flush automatically on exit.
pub fn flush_thread() {
    recorder::with_local(|b| b.flush());
}

/// Drains everything recorded so far into a [`Trace`]. Call after the
/// parallel work has joined; the calling thread is flushed explicitly.
///
/// Worker threads must have flushed by then. Joining a `JoinHandle` is
/// enough (TLS drop glue runs before the join returns), but the implicit
/// wait at the end of `std::thread::scope` is **not** — it releases before
/// thread-local destructors run — so scoped workers flush inside their
/// closure (the fork-join runtime calls [`flush_thread`] at worker exit).
pub fn take() -> Trace {
    flush_thread();
    let mut sink = recorder::SINK.lock().unwrap_or_else(|e| e.into_inner());
    Trace {
        spans: std::mem::take(&mut sink.spans),
        counters: std::mem::take(&mut sink.counters),
    }
}

/// Discards everything recorded so far.
pub fn clear() {
    let _ = take();
}

/// Convenience: clears stale events, enables recording around `f`, disables
/// it, and returns the recorded [`Trace`].
pub fn with_recording<R>(f: impl FnOnce() -> R) -> Trace {
    clear();
    enable();
    let _r = f();
    disable();
    take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The recorder is process-global; serialize tests that use it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = exclusive();
        clear();
        {
            let _s = span(Phase::Compute, "ghost");
            counter("ghost_counter", 1.0);
        }
        let t = take();
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _g = exclusive();
        let t = with_recording(|| {
            set_round(3);
            {
                let _s = span(Phase::Compress, "quantize");
                spin(1000);
            }
            counter("wire_bytes", 256.0);
            counter("wire_bytes", 128.0);
        });
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "quantize");
        assert_eq!(t.spans[0].phase, Phase::Compress);
        assert_eq!(t.spans[0].round, 3);
        let values: Vec<f64> = t.counters.iter().map(|c| c.value).collect();
        assert_eq!(values, [256.0, 128.0]);
    }

    #[test]
    fn worker_thread_spans_are_collected_on_join() {
        let _g = exclusive();
        let t = with_recording(|| {
            std::thread::scope(|s| {
                // Join the handles explicitly: `join()` waits for the OS
                // thread to terminate (thread-local destructors included),
                // which is what guarantees the drop-glue flush has landed.
                // The scope's *implicit* wait releases before TLS
                // destructors run — runtimes relying on it must flush inside
                // the worker closure (see `gcs-tensor::parallel`).
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        s.spawn(|| {
                            let _s = span(Phase::Compute, "worker_op");
                            spin(500);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker panicked");
                }
            });
            let _s = span(Phase::Optimizer, "main_op");
        });
        assert_eq!(t.spans.iter().filter(|s| s.name == "worker_op").count(), 3);
        assert_eq!(t.spans.iter().filter(|s| s.name == "main_op").count(), 1);
        // Worker spans carry distinct recorder tids from the main thread's.
        let main_tid = t.spans.iter().find(|s| s.name == "main_op").unwrap().tid;
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name == "worker_op")
            .all(|s| s.tid != main_tid));
    }

    #[test]
    fn spans_nest_without_double_drop() {
        let _g = exclusive();
        let t = with_recording(|| {
            let _outer = span(Phase::Compress, "outer");
            {
                let _inner = span(Phase::Reduce, "inner");
                spin(100);
            }
            spin(100);
        });
        assert_eq!(t.spans.len(), 2);
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn durations_are_monotonic_and_plausible() {
        let _g = exclusive();
        let t = with_recording(|| {
            let _s = span(Phase::Eval, "sleepy");
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(
            t.spans[0].dur_ns >= 4_000_000,
            "dur = {}",
            t.spans[0].dur_ns
        );
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::ALL.len(), 7);
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "compute",
                "compress",
                "reduce",
                "network",
                "decompress",
                "optimizer",
                "eval"
            ]
        );
    }

    #[test]
    fn round_tagging_is_readable_even_when_disabled() {
        let _g = exclusive();
        disable();
        set_round(41);
        assert_eq!(current_round(), 41);
        set_round(0);
    }
}
