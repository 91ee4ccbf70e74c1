//! Socket transport: the collectives over real localhost TCP, with elastic
//! membership (ISSUE 7 tentpole, ROADMAP item 2).
//!
//! The PR 5 [`MessageLinks`] seam made the worker bodies
//! ([`crate::transport::ring_all_reduce_worker_into`] & friends) generic over the
//! transport; this module supplies the second implementation — real sockets
//! instead of in-process channels — without touching those bodies. Layers,
//! bottom-up:
//!
//! * [`WireElem`] — fixed-width little-endian encoding of element types, so
//!   a reduction over TCP is bitwise-comparable to one over channels.
//! * `FramedStream` (private) — length-prefixed frames over a `TcpStream`,
//!   with bounded blocking reads (a dead or wedged peer surfaces as a typed
//!   [`CollectiveError`], never a hung socket read).
//! * [`TcpMesh`] — a connection-per-directed-link mesh: worker *i* dials one
//!   stream to every peer *j* (used only for `i → j` traffic) and accepts
//!   one from every peer (used only for `j → i`). Handshakes carry
//!   `(epoch, from)` so stale connections from a previous membership epoch
//!   are rejected during a rebuild.
//! * [`TcpLinks`] — the [`MessageLinks`] adapter over a mesh; the worker
//!   bodies run unchanged and count traffic identically, which is what makes
//!   the `tcp_vs_threaded` differential tests meaningful.
//! * [`Registry`] / [`FleetWorker`] — rendezvous and elastic membership: a
//!   registry assigns stable worker ids, runs a per-round barrier, and
//!   renumbers ranks over the *live* membership each round. This generalizes
//!   the PR 5 crash-survivor renumbering: workers can now *join* mid-run
//!   (epoch bumps, meshes rebuild, ranks stay dense) as well as die.
//!
//! ## Registry protocol (line-based, one TCP connection per worker)
//!
//! ```text
//! worker → registry   JOIN <listen_addr>      register; listener already bound
//! registry → worker   ID <worker_id>
//! worker → registry   BEGIN <train_round>     barrier for the next round
//! registry → worker   ROUND <round> <epoch> <rank> <n> <addr_0> … <addr_{n-1}>
//! worker → registry   LEAVE                   graceful exit
//! registry → worker   BYE
//! ```
//!
//! The barrier releases when every *live* registered worker has sent
//! `BEGIN`. Deaths are detected by registry-connection EOF (a SIGKILLed
//! process's sockets are closed by the kernel), joins by new `JOIN`s; either
//! changes the member set, which bumps `epoch` at the next release. Ranks
//! are the index of each worker id in the sorted live-id roster — dense,
//! deterministic, and stable for survivors in the common suffix sense that
//! PR 5's renumbering established. `round` is the max `train_round` offered
//! at the barrier, so a late joiner (offering 0) adopts the survivors'
//! training clock.
//!
//! Liveness note: a worker killed *between* `BEGIN` and the `ROUND` reply is
//! still included in that release (the registry learns of the death when the
//! reply write fails); the survivors' mesh build then fails, they re-enter
//! the barrier, and the next release excludes the corpse. One wasted round,
//! no deadlock — the chaos and fleet tests pin this.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::CollectiveError;
use crate::transport::MessageLinks;

/// Handshake magic ("GCSL" little-endian) prefixed to every mesh link.
const MESH_MAGIC: u32 = 0x4C53_4347;
/// Upper bound on a single frame's payload; larger lengths are treated as a
/// protocol violation (corrupt length prefix), not an allocation request.
const MAX_FRAME_BYTES: usize = 1 << 30;
/// Polling granularity for bounded accept/connect/read loops.
const POLL_SLEEP: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// Element types that can cross a byte-oriented transport with fixed width
/// and exact round-tripping. Encoding is little-endian, so a value reduced
/// over TCP is bit-identical to the same value reduced in process — the
/// property the differential suite asserts.
///
/// Implementations mark both methods `#[inline]`: the codec loops call them
/// once per element from generic code instantiated in downstream crates,
/// where a method that cannot be inlined is a call through the GOT.
pub trait WireElem: Clone + Send + 'static {
    /// Encoded width in bytes.
    const BYTES: usize;
    /// Appends this element's encoding to `out`.
    fn write_to(&self, out: &mut Vec<u8>);
    /// Decodes one element from exactly [`WireElem::BYTES`] bytes.
    fn read_from(bytes: &[u8]) -> Self;
}

impl WireElem for f32 {
    const BYTES: usize = 4;
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

impl WireElem for u32 {
    const BYTES: usize = 4;
    #[inline]
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

/// Encodes a slice of elements into a contiguous little-endian payload.
pub fn encode_elems<T: WireElem>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::BYTES);
    for v in data {
        v.write_to(&mut out);
    }
    out
}

/// Encodes into a caller-owned buffer (cleared first, capacity reused) —
/// the zero-allocation counterpart of [`encode_elems`] used by the mesh's
/// persistent send scratch (ISSUE 9).
pub fn encode_elems_into<T: WireElem>(data: &[T], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(data.len() * T::BYTES);
    for v in data {
        v.write_to(out);
    }
}

/// Decodes a payload produced by [`encode_elems`]. A length that is not a
/// multiple of the element width is a framing bug on `peer`'s side.
pub fn decode_elems<T: WireElem>(bytes: &[u8], peer: usize) -> Result<Vec<T>, CollectiveError> {
    if !bytes.len().is_multiple_of(T::BYTES) {
        return Err(CollectiveError::Protocol {
            peer,
            detail: format!(
                "payload of {} bytes is not a multiple of element width {}",
                bytes.len(),
                T::BYTES
            ),
        });
    }
    Ok(bytes.chunks_exact(T::BYTES).map(T::read_from).collect())
}

/// Decodes a payload produced by [`encode_elems`] directly into `out` —
/// no owned `Vec` materialized. The payload must hold *exactly*
/// `out.len()` elements; a width mismatch or element-count mismatch is a
/// framing bug on `peer`'s side and surfaces as a typed protocol error.
pub fn decode_elems_into<T: WireElem>(
    bytes: &[u8],
    out: &mut [T],
    peer: usize,
) -> Result<(), CollectiveError> {
    if !bytes.len().is_multiple_of(T::BYTES) {
        return Err(CollectiveError::Protocol {
            peer,
            detail: format!(
                "payload of {} bytes is not a multiple of element width {}",
                bytes.len(),
                T::BYTES
            ),
        });
    }
    let elems = bytes.len() / T::BYTES;
    if elems != out.len() {
        return Err(CollectiveError::Protocol {
            peer,
            detail: format!("expected {} elements, peer sent {elems}", out.len()),
        });
    }
    for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
        *slot = T::read_from(chunk);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed stream
// ---------------------------------------------------------------------------

/// Why a frame read ended without a frame.
#[derive(Debug)]
pub enum RecvFail {
    /// The peer closed the connection (process exit, SIGKILL, reset).
    Closed,
    /// Nothing (or an incomplete frame) arrived within the deadline.
    TimedOut,
    /// The peer sent bytes that cannot be a frame.
    Malformed(String),
}

/// A `TcpStream` carrying `u32`-length-prefixed frames, with a read-side
/// reassembly buffer so bounded reads never lose partial frames.
pub struct FramedStream {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl FramedStream {
    pub fn new(stream: TcpStream) -> FramedStream {
        let _ = stream.set_nodelay(true);
        FramedStream {
            stream,
            rbuf: Vec::new(),
        }
    }

    /// Writes one frame as a vectored `[header, payload]` gather write —
    /// the payload is never copied into a staging buffer (ISSUE 9 zero-copy
    /// framing). Partial writes resume at the exact byte offset across the
    /// logical `header ++ payload` sequence, so a short kernel write can
    /// never tear a frame.
    pub fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        use std::io::IoSlice;
        let header = (payload.len() as u32).to_le_bytes();
        let total = header.len() + payload.len();
        let mut done = 0usize;
        while done < total {
            let wrote = if done < header.len() {
                let bufs = [IoSlice::new(&header[done..]), IoSlice::new(payload)];
                self.stream.write_vectored(&bufs)
            } else {
                self.stream.write(&payload[done - header.len()..])
            };
            match wrote {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes mid-frame",
                    ))
                }
                Ok(k) => done += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Length of the complete frame at the head of the reassembly buffer,
    /// if one has fully arrived. Shared validation for the owned and
    /// in-place receive paths.
    fn peek_frame_len(&self) -> Result<Option<usize>, RecvFail> {
        if self.rbuf.len() < 4 {
            return Ok(None);
        }
        let len =
            u32::from_le_bytes([self.rbuf[0], self.rbuf[1], self.rbuf[2], self.rbuf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(RecvFail::Malformed(format!(
                "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"
            )));
        }
        if self.rbuf.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some(len))
    }

    /// Pops a complete frame from the reassembly buffer, if one is there.
    pub fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, RecvFail> {
        match self.peek_frame_len()? {
            None => Ok(None),
            Some(len) => {
                let payload = self.rbuf[4..4 + len].to_vec();
                self.rbuf.drain(..4 + len);
                Ok(Some(payload))
            }
        }
    }

    /// Blocks for up to `deadline` assembling one frame.
    pub fn recv_frame(&mut self, deadline: Duration) -> Result<Vec<u8>, RecvFail> {
        self.recv_frame_with(deadline, |payload| payload.to_vec())
    }

    /// Blocks for up to `deadline` assembling one frame, then hands its
    /// payload to `consume` *in place* in the reassembly buffer — the
    /// zero-allocation receive path (ISSUE 9): the payload bytes are
    /// decoded where they landed and drained afterwards, never copied into
    /// an owned `Vec`.
    pub fn recv_frame_with<R>(
        &mut self,
        deadline: Duration,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, RecvFail> {
        let t0 = Instant::now();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(len) = self.peek_frame_len()? {
                let out = consume(&self.rbuf[4..4 + len]);
                self.rbuf.drain(..4 + len);
                return Ok(out);
            }
            let remaining = deadline
                .checked_sub(t0.elapsed())
                .ok_or(RecvFail::TimedOut)?;
            // recv(2) timeouts of zero mean "block forever"; clamp up.
            let _ = self
                .stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(RecvFail::Closed),
                Ok(k) => self.rbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(RecvFail::TimedOut)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(RecvFail::Closed),
            }
        }
    }

    /// Non-blocking poll: drains whatever bytes are ready, then pops at most
    /// one frame.
    pub fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvFail> {
        let mut chunk = [0u8; 64 * 1024];
        let _ = self.stream.set_nonblocking(true);
        let drained = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(RecvFail::Closed),
                Ok(k) => {
                    self.rbuf.extend_from_slice(&chunk[..k]);
                    if k < chunk.len() {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break Err(RecvFail::Closed),
            }
        };
        let _ = self.stream.set_nonblocking(false);
        match (self.pop_frame()?, drained) {
            // A buffered frame is still deliverable even off a closed stream.
            (Some(frame), _) => Ok(Some(frame)),
            (None, Err(fail)) => Err(fail),
            (None, Ok(())) => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------------

/// Default bound on blocking mesh receives.
pub const DEFAULT_TCP_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Default pipelining chunk (bytes): large messages are streamed through
/// the collective bodies in pieces of at most this size so reduce compute
/// overlaps wire transfer. Overridden by `GCS_TCP_CHUNK`.
pub const DEFAULT_TCP_CHUNK_BYTES: usize = 64 * 1024;

/// Parses a positive integer environment knob; unset/garbage → `None`.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&v| v > 0)
}

/// Best-effort `SO_SNDBUF`/`SO_RCVBUF` sizing from the
/// `GCS_TCP_SNDBUF`/`GCS_TCP_RCVBUF` knobs (values in bytes; the kernel
/// doubles and clamps them). std's `TcpStream` exposes no setter and the
/// tree is dependency-free, so on Linux this goes through a direct
/// `setsockopt(2)` declaration; elsewhere it is a no-op and the kernel
/// defaults stand.
fn apply_sock_bufs(stream: &TcpStream, sndbuf: Option<usize>, rcvbuf: Option<usize>) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        const SO_RCVBUF: i32 = 8;
        extern "C" {
            fn setsockopt(
                fd: i32,
                level: i32,
                optname: i32,
                optval: *const core::ffi::c_void,
                optlen: u32,
            ) -> i32;
        }
        let set = |opt: i32, bytes: usize| {
            let v = bytes.min(i32::MAX as usize) as i32;
            // Failure just leaves the kernel default — never fatal.
            let _ = unsafe {
                setsockopt(
                    stream.as_raw_fd(),
                    SOL_SOCKET,
                    opt,
                    (&v as *const i32).cast(),
                    core::mem::size_of::<i32>() as u32,
                )
            };
        };
        if let Some(b) = sndbuf {
            set(SO_SNDBUF, b);
        }
        if let Some(b) = rcvbuf {
            set(SO_RCVBUF, b);
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (stream, sndbuf, rcvbuf);
    }
}

/// The connection-per-directed-link TCP fabric of one worker for one
/// membership epoch: `out[j]` carries `rank → j` traffic, `inn[j]` carries
/// `j → rank`. Byte-level send/recv lives here so higher layers (the typed
/// [`TcpLinks`] adapter, `gcs-faults`' frame carrier) share one socket
/// discipline.
pub struct TcpMesh {
    rank: usize,
    n: usize,
    epoch: u64,
    out: Vec<Option<FramedStream>>,
    inn: Vec<Option<FramedStream>>,
    recv_deadline: Duration,
    /// Pipelining chunk bound (bytes) advertised to the collective bodies;
    /// read once from `GCS_TCP_CHUNK` at build (env lookups allocate, so
    /// they are banned from the steady-state path).
    chunk_bytes: usize,
    /// Persistent send-side encode scratch: every typed send encodes into
    /// this buffer, so the steady state never touches the heap (ISSUE 9).
    sbuf: Vec<u8>,
}

impl TcpMesh {
    /// Dials every peer and accepts every peer's dial, validating the
    /// `(epoch, from)` handshake on accepted connections. `peers[rank]` is
    /// this worker's own (ignored) address; `listener` must already be the
    /// bound listener whose address was advertised — binding *before*
    /// advertising is what makes the dial/accept rendezvous deadlock-free.
    pub fn connect(
        listener: &TcpListener,
        rank: usize,
        n: usize,
        epoch: u64,
        peers: &[SocketAddr],
        build_deadline: Duration,
    ) -> Result<TcpMesh, CollectiveError> {
        assert_eq!(peers.len(), n, "mesh: roster size mismatch");
        assert!(rank < n, "mesh: rank out of range");
        let t0 = Instant::now();
        // Environment knobs are read once here, never on the data path.
        let sndbuf = env_usize("GCS_TCP_SNDBUF");
        let rcvbuf = env_usize("GCS_TCP_RCVBUF");
        let chunk_bytes = env_usize("GCS_TCP_CHUNK").unwrap_or(DEFAULT_TCP_CHUNK_BYTES);
        let mut out: Vec<Option<FramedStream>> = (0..n).map(|_| None).collect();
        let mut inn: Vec<Option<FramedStream>> = (0..n).map(|_| None).collect();

        // Dial out-links. Peers registered only after binding their
        // listeners, so refusals are transient (SYN backlog churn at worst);
        // retry inside the build deadline.
        for (peer, addr) in peers.iter().enumerate() {
            if peer == rank {
                continue;
            }
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) if t0.elapsed() < build_deadline => std::thread::sleep(POLL_SLEEP),
                    Err(_) => return Err(CollectiveError::PeerLost { peer }),
                }
            };
            apply_sock_bufs(&stream, sndbuf, rcvbuf);
            let mut fs = FramedStream::new(stream);
            let mut hello = [0u8; 16];
            hello[..4].copy_from_slice(&MESH_MAGIC.to_le_bytes());
            hello[4..12].copy_from_slice(&epoch.to_le_bytes());
            hello[12..16].copy_from_slice(&(rank as u32).to_le_bytes());
            fs.stream
                .write_all(&hello)
                .map_err(|_| CollectiveError::PeerLost { peer })?;
            out[peer] = Some(fs);
        }

        // Accept in-links until every peer has handshaken for *this* epoch.
        // Stale connections (previous epoch's mesh, or a peer's abandoned
        // build attempt) are dropped on sight.
        listener
            .set_nonblocking(true)
            .map_err(|e| CollectiveError::Protocol {
                peer: rank,
                detail: format!("listener nonblocking: {e}"),
            })?;
        let accept_result = (|| loop {
            if inn
                .iter()
                .enumerate()
                .all(|(p, s)| p == rank || s.is_some())
            {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let mut hello = [0u8; 16];
                    let mut s = stream;
                    if s.read_exact(&mut hello).is_err() {
                        continue;
                    }
                    let magic = u32::from_le_bytes([hello[0], hello[1], hello[2], hello[3]]);
                    let peer_epoch = u64::from_le_bytes([
                        hello[4], hello[5], hello[6], hello[7], hello[8], hello[9], hello[10],
                        hello[11],
                    ]);
                    let from =
                        u32::from_le_bytes([hello[12], hello[13], hello[14], hello[15]]) as usize;
                    if magic != MESH_MAGIC || peer_epoch != epoch || from >= n || from == rank {
                        continue; // stale or bogus; drop it
                    }
                    let _ = s.set_read_timeout(None);
                    apply_sock_bufs(&s, sndbuf, rcvbuf);
                    inn[from] = Some(FramedStream::new(s));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if t0.elapsed() >= build_deadline {
                        let missing = inn
                            .iter()
                            .enumerate()
                            .find(|(p, s)| *p != rank && s.is_none())
                            .map(|(p, _)| p)
                            .unwrap_or((rank + 1) % n);
                        return Err(CollectiveError::Timeout {
                            peer: missing,
                            attempts: 1,
                        });
                    }
                    std::thread::sleep(POLL_SLEEP);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(CollectiveError::Protocol {
                        peer: rank,
                        detail: format!("accept: {e}"),
                    })
                }
            }
        })();
        let _ = listener.set_nonblocking(false);
        accept_result?;

        Ok(TcpMesh {
            rank,
            n,
            epoch,
            out,
            inn,
            recv_deadline: DEFAULT_TCP_RECV_DEADLINE,
            chunk_bytes,
            sbuf: Vec::new(),
        })
    }

    /// This worker's rank in the current epoch.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size in the current epoch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Membership epoch this mesh was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bounds blocking receives (see [`TcpMesh::recv_raw`]).
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.recv_deadline = deadline;
    }

    /// The deadline currently bounding blocking receives.
    pub fn recv_deadline(&self) -> Duration {
        self.recv_deadline
    }

    /// Overrides the pipelining chunk bound. Normally set once from
    /// `GCS_TCP_CHUNK` at build; tests use this to force tiny chunks
    /// (chunking-boundary coverage). Every rank must use the same value —
    /// both ends of a link derive the frame count from it.
    pub fn set_chunk_bytes(&mut self, bytes: usize) {
        self.chunk_bytes = bytes.max(1);
    }

    /// Typed send: encodes `data` into the mesh's persistent scratch and
    /// writes one vectored frame. At steady state (scratch warm) this does
    /// not allocate.
    pub fn send_elems<T: WireElem>(
        &mut self,
        peer: usize,
        data: &[T],
    ) -> Result<(), CollectiveError> {
        // Take the scratch to sidestep the self-borrow; a Vec move is three
        // words, no heap traffic.
        let mut sbuf = std::mem::take(&mut self.sbuf);
        encode_elems_into(data, &mut sbuf);
        let res = self.send_raw(peer, &sbuf);
        self.sbuf = sbuf;
        res
    }

    /// Typed receive straight into `out`: the frame payload is decoded in
    /// place in the link's reassembly buffer — no owned `Vec`, no copy
    /// beyond the element decode itself.
    pub fn recv_elems_into<T: WireElem>(
        &mut self,
        peer: usize,
        out: &mut [T],
    ) -> Result<(), CollectiveError> {
        let deadline = self.recv_deadline;
        match self
            .in_link(peer)
            .recv_frame_with(deadline, |payload| decode_elems_into(payload, out, peer))
        {
            Ok(decoded) => decoded,
            Err(RecvFail::Closed) => Err(CollectiveError::PeerLost { peer }),
            Err(RecvFail::TimedOut) => Err(CollectiveError::Timeout { peer, attempts: 1 }),
            Err(RecvFail::Malformed(detail)) => Err(CollectiveError::Protocol { peer, detail }),
        }
    }

    fn out_link(&mut self, peer: usize) -> &mut FramedStream {
        assert!(
            peer != self.rank && peer < self.n,
            "mesh send: bad peer {peer}"
        );
        self.out[peer].as_mut().expect("out link present")
    }

    fn in_link(&mut self, peer: usize) -> &mut FramedStream {
        assert!(
            peer != self.rank && peer < self.n,
            "mesh recv: bad peer {peer}"
        );
        self.inn[peer].as_mut().expect("in link present")
    }

    /// Sends one raw frame to `peer`. A write failure means the peer's
    /// process is gone (or its socket reset): [`CollectiveError::PeerLost`].
    pub fn send_raw(&mut self, peer: usize, payload: &[u8]) -> Result<(), CollectiveError> {
        let wire = 4 + payload.len();
        self.out_link(peer)
            .send_frame(payload)
            .map_err(|_| CollectiveError::PeerLost { peer })?;
        gcs_metrics::counter_add("transport/tcp/wire_bytes_total", wire as f64);
        Ok(())
    }

    /// Receives one raw frame from `peer`, blocking up to `deadline`.
    pub fn recv_raw_timeout(
        &mut self,
        peer: usize,
        deadline: Duration,
    ) -> Result<Vec<u8>, CollectiveError> {
        match self.in_link(peer).recv_frame(deadline) {
            Ok(frame) => Ok(frame),
            Err(RecvFail::Closed) => Err(CollectiveError::PeerLost { peer }),
            Err(RecvFail::TimedOut) => Err(CollectiveError::Timeout { peer, attempts: 1 }),
            Err(RecvFail::Malformed(detail)) => Err(CollectiveError::Protocol { peer, detail }),
        }
    }

    /// Receives one raw frame from `peer`, blocking up to the mesh's
    /// configured receive deadline.
    pub fn recv_raw(&mut self, peer: usize) -> Result<Vec<u8>, CollectiveError> {
        let deadline = self.recv_deadline;
        self.recv_raw_timeout(peer, deadline)
    }

    /// Non-blocking receive: `Ok(None)` when no complete frame from `peer`
    /// is queued.
    pub fn try_recv_raw(&mut self, peer: usize) -> Result<Option<Vec<u8>>, CollectiveError> {
        match self.in_link(peer).try_recv_frame() {
            Ok(frame) => Ok(frame),
            Err(RecvFail::Closed) => Err(CollectiveError::PeerLost { peer }),
            Err(RecvFail::TimedOut) => Ok(None),
            Err(RecvFail::Malformed(detail)) => Err(CollectiveError::Protocol { peer, detail }),
        }
    }
}

// ---------------------------------------------------------------------------
// MessageLinks adapter
// ---------------------------------------------------------------------------

/// [`MessageLinks`] over a [`TcpMesh`]: the adapter that lets
/// `ring_all_reduce_worker_into` & friends run over sockets unchanged. Borrows
/// the mesh so elastic callers ([`FleetWorker`]) can keep the mesh across
/// rounds and hand out fresh typed views.
pub struct TcpLinks<'m, T: WireElem> {
    mesh: &'m mut TcpMesh,
    _elem: PhantomData<T>,
}

impl<'m, T: WireElem> TcpLinks<'m, T> {
    /// Wraps a mesh in a typed links view.
    pub fn new(mesh: &'m mut TcpMesh) -> TcpLinks<'m, T> {
        TcpLinks {
            mesh,
            _elem: PhantomData,
        }
    }
}

impl<T: WireElem> MessageLinks<T> for TcpLinks<'_, T> {
    fn rank(&self) -> usize {
        self.mesh.rank()
    }

    fn n(&self) -> usize {
        self.mesh.n()
    }

    fn send(&mut self, peer: usize, data: Vec<T>) -> Result<(), CollectiveError> {
        self.mesh.send_elems(peer, &data)
    }

    fn recv(&mut self, peer: usize) -> Result<Vec<T>, CollectiveError> {
        let payload = self.mesh.recv_raw(peer)?;
        decode_elems(&payload, peer)
    }

    fn send_slice(&mut self, peer: usize, data: &[T]) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        self.mesh.send_elems(peer, data)
    }

    fn recv_into(&mut self, peer: usize, out: &mut [T]) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        self.mesh.recv_elems_into(peer, out)
    }

    fn chunk_elems(&self) -> usize {
        (self.mesh.chunk_bytes / T::BYTES).max(1)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A registered worker, as the registry sees it.
struct Member {
    addr: String,
    /// `Some(train_round)` once the worker has sent `BEGIN` for the next
    /// barrier.
    waiting: Option<u64>,
    /// The `ROUND` line computed for this worker at the last release, not
    /// yet picked up by its connection handler.
    reply: Option<String>,
}

struct RegState {
    next_id: u64,
    members: BTreeMap<u64, Member>,
    epoch: u64,
    round: u64,
    last_roster: Vec<u64>,
    /// The very first barrier waits for at least this many workers, so a
    /// fast founder cannot form a cluster of one before the rest of the
    /// initial fleet has joined. Later barriers are purely membership-driven
    /// (crashes may legitimately shrink the fleet below this).
    min_first: usize,
}

impl RegState {
    /// Releases the barrier if every live member is waiting at it.
    fn try_release(&mut self) {
        if self.members.is_empty() || !self.members.values().all(|m| m.waiting.is_some()) {
            return;
        }
        if self.epoch == 0 && self.members.len() < self.min_first {
            return;
        }
        let roster: Vec<u64> = self.members.keys().copied().collect();
        if roster != self.last_roster {
            self.epoch += 1;
            self.last_roster = roster.clone();
        }
        // Survivors agree on the training clock; a fresh joiner offers 0 and
        // adopts theirs.
        self.round = self
            .members
            .values()
            .filter_map(|m| m.waiting)
            .max()
            .unwrap_or(0);
        let n = roster.len();
        let addrs: Vec<String> = self.members.values().map(|m| m.addr.clone()).collect();
        for (rank, id) in roster.iter().enumerate() {
            let m = self.members.get_mut(id).expect("roster member exists");
            m.waiting = None;
            m.reply = Some(format!(
                "ROUND {} {} {} {} {}",
                self.round,
                self.epoch,
                rank,
                n,
                addrs.join(" ")
            ));
        }
    }
}

/// The rendezvous/membership service: assigns worker ids, runs the
/// per-round barrier, and renumbers ranks over the live membership. Runs
/// accept + per-connection handler threads in-process; the fleet example
/// and tests host it in the parent process of the worker fleet.
pub struct Registry {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<(Mutex<RegState>, Condvar)>,
}

impl Registry {
    /// Binds a listener on an ephemeral localhost port and starts serving.
    /// The first barrier waits for at least `min_workers` joiners (later
    /// barriers track live membership, however small).
    pub fn spawn(min_workers: usize) -> std::io::Result<Registry> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new((
            Mutex::new(RegState {
                next_id: 0,
                members: BTreeMap::new(),
                epoch: 0,
                round: 0,
                last_roster: Vec::new(),
                min_first: min_workers,
            }),
            Condvar::new(),
        ));
        {
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let shutdown = Arc::clone(&shutdown);
                            let state = Arc::clone(&state);
                            std::thread::spawn(move || {
                                Registry::serve_conn(stream, &state, &shutdown);
                            });
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_SLEEP);
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        Ok(Registry {
            addr,
            shutdown,
            state,
        })
    }

    /// The address workers dial to join.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current number of live registered workers (observability/tests).
    pub fn live_workers(&self) -> usize {
        self.state.0.lock().expect("registry state").members.len()
    }

    /// Stops accepting and unblocks handler threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.state.1.notify_all();
    }

    fn serve_conn(
        stream: TcpStream,
        state: &Arc<(Mutex<RegState>, Condvar)>,
        shutdown: &Arc<AtomicBool>,
    ) {
        let mut conn = LineConn::new(stream);
        let (lock, cvar) = (&state.0, &state.1);
        // First line must be JOIN.
        let id = match conn.read_line_bounded(Duration::from_secs(10), shutdown) {
            Ok(line) if line.starts_with("JOIN ") => {
                let addr = line[5..].trim().to_string();
                let mut st = lock.lock().expect("registry state");
                let id = st.next_id;
                st.next_id += 1;
                st.members.insert(
                    id,
                    Member {
                        addr,
                        waiting: None,
                        reply: None,
                    },
                );
                gcs_metrics::counter_add("transport/tcp/joins_total", 1.0);
                cvar.notify_all();
                drop(st);
                if conn.write_line(&format!("ID {id}")).is_err() {
                    Registry::drop_member(state, id);
                    return;
                }
                id
            }
            _ => return,
        };
        loop {
            let line = match conn.read_line_bounded(Duration::from_secs(3600), shutdown) {
                Ok(line) => line,
                Err(_) => {
                    // EOF, reset or shutdown: the worker is gone. Remove it
                    // and re-check the barrier — survivors must not wait on
                    // a corpse.
                    Registry::drop_member(state, id);
                    return;
                }
            };
            if let Some(round) = line.strip_prefix("BEGIN ") {
                let train_round: u64 = round.trim().parse().unwrap_or(0);
                let mut st = lock.lock().expect("registry state");
                if let Some(m) = st.members.get_mut(&id) {
                    m.waiting = Some(train_round);
                }
                st.try_release();
                cvar.notify_all();
                // Wait for this member's reply to be computed.
                let reply = loop {
                    if shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    match st.members.get_mut(&id) {
                        None => return, // removed concurrently
                        Some(m) => {
                            if let Some(r) = m.reply.take() {
                                break r;
                            }
                        }
                    }
                    let (next, _) = cvar
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("registry state");
                    st = next;
                };
                drop(st);
                if conn.write_line(&reply).is_err() {
                    // Died between BEGIN and the reply; the roster heals at
                    // the next barrier.
                    Registry::drop_member(state, id);
                    return;
                }
            } else if line.trim() == "LEAVE" {
                Registry::drop_member(state, id);
                let _ = conn.write_line("BYE");
                return;
            }
            // Unknown lines are ignored (forward compatibility).
        }
    }

    fn drop_member(state: &Arc<(Mutex<RegState>, Condvar)>, id: u64) {
        let mut st = state.0.lock().expect("registry state");
        st.members.remove(&id);
        st.try_release();
        state.1.notify_all();
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Line-oriented connection (registry protocol carrier)
// ---------------------------------------------------------------------------

/// Newline-delimited text over a `TcpStream`, with bounded reads that keep
/// partial lines across timeouts (no `BufReader`, whose buffer state is
/// unspecified after an errored read).
struct LineConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Persistent line-assembly buffer: `write_line` reuses its capacity
    /// instead of building a fresh `Vec` per protocol line (ISSUE 9
    /// satellite — the registry handles every barrier of every worker, so
    /// per-line allocations compound).
    wbuf: Vec<u8>,
}

impl LineConn {
    fn new(stream: TcpStream) -> LineConn {
        let _ = stream.set_nodelay(true);
        LineConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        }
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.stream.write_all(&self.wbuf)
    }

    fn pop_line(&mut self) -> Option<String> {
        let nl = self.rbuf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.rbuf[..nl]).into_owned();
        self.rbuf.drain(..=nl);
        Some(line)
    }

    /// Reads one line, blocking up to `deadline` (and aborting early if
    /// `shutdown` flips). Errors mean the connection is unusable: EOF,
    /// reset, deadline exceeded, or shutdown.
    fn read_line_bounded(
        &mut self,
        deadline: Duration,
        shutdown: &AtomicBool,
    ) -> Result<String, std::io::Error> {
        let t0 = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(line) = self.pop_line() {
                return Ok(line);
            }
            if shutdown.load(Ordering::Relaxed) || t0.elapsed() >= deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "line deadline"));
            }
            let _ = self
                .stream
                .set_read_timeout(Some(Duration::from_millis(100)));
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed")),
                Ok(k) => self.rbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet worker (registry client + elastic mesh)
// ---------------------------------------------------------------------------

/// Deadlines governing a [`FleetWorker`]'s patience. The defaults suit
/// multi-process runs on a loaded machine; tests shrink them to keep
/// failure cases fast.
#[derive(Clone, Copy, Debug)]
pub struct TcpTimeouts {
    /// How long to wait at the registry barrier for the rest of the fleet.
    pub barrier: Duration,
    /// How long a mesh build (dial + accept all links) may take.
    pub mesh_build: Duration,
    /// Bound on each blocking mesh receive during a collective.
    pub recv: Duration,
}

impl Default for TcpTimeouts {
    fn default() -> TcpTimeouts {
        TcpTimeouts {
            barrier: Duration::from_secs(120),
            mesh_build: Duration::from_secs(10),
            recv: Duration::from_secs(10),
        }
    }
}

impl TcpTimeouts {
    /// Tight deadlines for in-process tests.
    pub fn fast_test() -> TcpTimeouts {
        TcpTimeouts {
            barrier: Duration::from_secs(20),
            mesh_build: Duration::from_secs(5),
            recv: Duration::from_secs(5),
        }
    }
}

/// What the registry told this worker about the round it may now run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundStart {
    /// Training-clock round agreed at the barrier (max over participants).
    pub round: u64,
    /// Membership epoch; changes whenever the live member set changes.
    pub epoch: u64,
    /// This worker's dense rank within the epoch's roster.
    pub rank: usize,
    /// Live cluster size for this epoch.
    pub n: usize,
    /// True when the mesh was (re)built for this round — i.e. the epoch
    /// changed, so ranks may have moved and state sync may be needed.
    pub rebuilt: bool,
}

/// One elastic fleet participant: joins via the registry, then alternates
/// barrier (`next_round`) and collective work over the epoch's [`TcpMesh`].
/// Crash recovery and mid-run joins both reduce to "the epoch changed,
/// rebuild the mesh, ranks are reassigned" — the generalization of PR 5's
/// survivor renumbering.
pub struct FleetWorker {
    conn: LineConn,
    listener: TcpListener,
    shutdown: AtomicBool, // never set; satisfies the bounded-read interface
    /// Registry-assigned stable id (rank changes across epochs; this never).
    pub worker_id: u64,
    timeouts: TcpTimeouts,
    mesh: Option<TcpMesh>,
    last_epoch: u64,
}

impl FleetWorker {
    /// Binds this worker's mesh listener, then registers with the registry.
    /// The bind-before-register order guarantees every address a `ROUND`
    /// roster advertises is already accepting connections.
    pub fn join(
        registry: SocketAddr,
        timeouts: TcpTimeouts,
    ) -> Result<FleetWorker, CollectiveError> {
        let fail = |detail: String| CollectiveError::Protocol { peer: 0, detail };
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| fail(format!("bind listener: {e}")))?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| fail(format!("listener addr: {e}")))?;
        let stream =
            TcpStream::connect(registry).map_err(|e| fail(format!("dial registry: {e}")))?;
        let mut conn = LineConn::new(stream);
        conn.write_line(&format!("JOIN {listen_addr}"))
            .map_err(|e| fail(format!("send JOIN: {e}")))?;
        let shutdown = AtomicBool::new(false);
        let reply = conn
            .read_line_bounded(timeouts.barrier, &shutdown)
            .map_err(|e| fail(format!("read ID: {e}")))?;
        let worker_id = reply
            .strip_prefix("ID ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| fail(format!("bad ID reply {reply:?}")))?;
        Ok(FleetWorker {
            conn,
            listener,
            shutdown,
            worker_id,
            timeouts,
            mesh: None,
            last_epoch: 0,
        })
    }

    /// Barriers with the fleet for the next round, rebuilding the mesh when
    /// membership changed. Mesh-build failures (a peer died between the
    /// barrier release and the build) re-enter the barrier a bounded number
    /// of times — the registry notices the death and the next release
    /// excludes it.
    pub fn next_round(&mut self, train_round: u64) -> Result<RoundStart, CollectiveError> {
        let fail = |detail: String| CollectiveError::Protocol { peer: 0, detail };
        let mut last_err = None;
        for _attempt in 0..10 {
            self.conn
                .write_line(&format!("BEGIN {train_round}"))
                .map_err(|e| fail(format!("send BEGIN: {e}")))?;
            let reply = self
                .conn
                .read_line_bounded(self.timeouts.barrier, &self.shutdown)
                .map_err(|e| fail(format!("read ROUND: {e}")))?;
            let mut parts = reply.split_whitespace();
            let (round, epoch, rank, n) = match (
                parts.next(),
                parts.next().and_then(|s| s.parse::<u64>().ok()),
                parts.next().and_then(|s| s.parse::<u64>().ok()),
                parts.next().and_then(|s| s.parse::<usize>().ok()),
                parts.next().and_then(|s| s.parse::<usize>().ok()),
            ) {
                (Some("ROUND"), Some(round), Some(epoch), Some(rank), Some(n)) => {
                    (round, epoch, rank, n)
                }
                _ => return Err(fail(format!("bad ROUND reply {reply:?}"))),
            };
            let addrs: Result<Vec<SocketAddr>, _> = parts.map(|s| s.parse()).collect();
            let addrs = addrs.map_err(|e| fail(format!("bad roster addr: {e}")))?;
            if addrs.len() != n || rank >= n {
                return Err(fail(format!("inconsistent ROUND reply {reply:?}")));
            }
            if epoch == self.last_epoch && self.mesh.is_some() {
                return Ok(RoundStart {
                    round,
                    epoch,
                    rank,
                    n,
                    rebuilt: false,
                });
            }
            let rebuilt_before = self.mesh.take().is_some();
            match TcpMesh::connect(
                &self.listener,
                rank,
                n,
                epoch,
                &addrs,
                self.timeouts.mesh_build,
            ) {
                Ok(mut mesh) => {
                    mesh.set_recv_deadline(self.timeouts.recv);
                    self.mesh = Some(mesh);
                    self.last_epoch = epoch;
                    if rebuilt_before {
                        gcs_metrics::counter_add("transport/tcp/reconnects_total", 1.0);
                    }
                    return Ok(RoundStart {
                        round,
                        epoch,
                        rank,
                        n,
                        rebuilt: true,
                    });
                }
                Err(e) => {
                    // A roster member vanished mid-build; re-barrier.
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(CollectiveError::Timeout {
            peer: 0,
            attempts: 10,
        }))
    }

    /// The current epoch's mesh. Panics if called before a successful
    /// [`FleetWorker::next_round`] (caller bug, not a fabric condition).
    pub fn mesh_mut(&mut self) -> &mut TcpMesh {
        self.mesh.as_mut().expect("next_round before mesh access")
    }

    /// Typed links over the current mesh for the collective worker bodies.
    pub fn links<T: WireElem>(&mut self) -> TcpLinks<'_, T> {
        TcpLinks::new(self.mesh_mut())
    }

    /// Gracefully deregisters (peers renumber at the next barrier without a
    /// timeout hiccup, unlike a crash).
    pub fn leave(mut self) -> Result<(), CollectiveError> {
        self.conn
            .write_line("LEAVE")
            .map_err(|e| CollectiveError::Protocol {
                peer: 0,
                detail: format!("send LEAVE: {e}"),
            })?;
        let _ = self
            .conn
            .read_line_bounded(Duration::from_secs(2), &self.shutdown);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// In-process cluster harness
// ---------------------------------------------------------------------------

/// In-process analogue of [`crate::transport::ThreadedCluster`] over real
/// sockets: a registry plus one worker *thread* per rank, each with its own
/// listener, mesh and [`TcpLinks`]. The fast path for differential tests
/// and benches; the multi-process story lives in the `gcs_tcp_worker`
/// binary and `tests/tcp_fleet.rs`.
pub struct TcpCluster;

impl TcpCluster {
    /// Runs `body(rank, links)` on `n` socket-connected worker threads and
    /// returns the outputs in rank order.
    ///
    /// # Panics
    /// Panics if the registry cannot bind, a worker fails rendezvous, or a
    /// worker thread panics.
    pub fn run<T, R, F>(n: usize, body: F) -> Vec<R>
    where
        T: WireElem,
        R: Send + 'static,
        F: Fn(usize, &mut TcpLinks<'_, T>) -> R + Send + Sync + 'static,
    {
        assert!(n > 0, "TcpCluster: n must be positive");
        let registry = Registry::spawn(n).expect("registry bind");
        let addr = registry.addr();
        let body = Arc::new(body);
        let results: Arc<Mutex<Vec<Option<R>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let mut handles = Vec::new();
        for _ in 0..n {
            let body = Arc::clone(&body);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut worker =
                    FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("worker join");
                let rs = worker.next_round(0).expect("rendezvous round");
                assert_eq!(rs.n, n, "cluster formed with wrong size");
                let mut links = worker.links::<T>();
                let out = body(rs.rank, &mut links);
                results.lock().expect("results mutex")[rs.rank] = Some(out);
                worker.leave().expect("leave");
            }));
        }
        for h in handles {
            h.join().expect("tcp worker thread panicked");
        }
        registry.shutdown();
        Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("worker results still shared"))
            .into_inner()
            .expect("results mutex")
            .into_iter()
            .map(|r| r.expect("worker produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::F32Sum;
    use crate::transport::{
        all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, threaded_ring_all_reduce,
    };

    fn bufs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|w| (0..len).map(|i| ((w * len + i) as f32).sin()).collect())
            .collect()
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let vals = vec![0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::MAX, -1e-37];
        let enc = encode_elems(&vals);
        let dec: Vec<f32> = decode_elems(&enc, 0).expect("aligned payload");
        for (a, b) in vals.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_elems::<f32>(&enc[..enc.len() - 1], 3).is_err());
    }

    #[test]
    fn tcp_ring_all_reduce_matches_threaded_bitwise() {
        for n in [2usize, 3, 5] {
            let inputs = bufs(n, 41);
            let (expect, _) =
                threaded_ring_all_reduce(inputs.clone(), F32Sum, 4.0).expect("threaded");
            let inputs = Arc::new(inputs);
            let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
                let mut buf = inputs[rank].clone();
                ring_all_reduce_worker_into(links, &mut buf, &F32Sum, 4.0, &mut Vec::new())
                    .map(|(sent, recv)| (buf, sent, recv))
            });
            for (rank, r) in results.into_iter().enumerate() {
                let (buf, sent, recv) = r.expect("healthy tcp cluster");
                assert_eq!(buf, expect[rank], "n={n} rank={rank}");
                assert!(sent > 0 && recv > 0);
            }
        }
    }

    #[test]
    fn tcp_broadcast_and_all_gather_match_reference() {
        let n = 4;
        let payload: Vec<f32> = (0..17).map(|i| (i as f32).cos()).collect();
        let root_payload = payload.clone();
        let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
            let buf = if rank == 2 {
                root_payload.clone()
            } else {
                Vec::new()
            };
            broadcast_worker(links, buf, 2, 4.0)
        });
        for r in results {
            assert_eq!(r.expect("broadcast").0, payload);
        }

        let inputs = bufs(n, 6);
        let (reference, _) = crate::ops::all_gather(&inputs, 4.0);
        let inputs = Arc::new(inputs);
        let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
            all_gather_worker(links, inputs[rank].clone(), 4.0)
        });
        for r in results {
            assert_eq!(r.expect("all-gather").0, reference);
        }
    }

    #[test]
    fn killed_peer_surfaces_typed_error_and_survivors_renumber() {
        let registry = Registry::spawn(3).expect("registry");
        let addr = registry.addr();
        let n = 3;
        let mut handles = Vec::new();
        for _ in 0..n {
            handles.push(std::thread::spawn(move || {
                let mut timeouts = TcpTimeouts::fast_test();
                timeouts.recv = Duration::from_millis(500);
                let mut worker = FleetWorker::join(addr, timeouts).expect("join");
                let rs = worker.next_round(0).expect("round 0");
                if rs.rank == 1 {
                    // Die abruptly: drop everything without LEAVE, like a
                    // SIGKILL (sockets close, registry sees EOF).
                    return (rs.rank, None, 0usize);
                }
                let mut links = worker.links::<f32>();
                let mut buf: Vec<f32> = (0..16).map(|i| (rs.rank * 16 + i) as f32).collect();
                let mut scratch = Vec::new();
                let err =
                    ring_all_reduce_worker_into(&mut links, &mut buf, &F32Sum, 4.0, &mut scratch)
                        .expect_err("dead peer must surface");
                assert!(err.is_peer_failure(), "unexpected error {err:?}");
                // Re-barrier: the registry must renumber the survivors.
                let rs2 = worker.next_round(1).expect("survivor round");
                assert_eq!(rs2.n, 2, "survivors renumbered to n=2");
                assert!(rs2.rebuilt);
                let mut links = worker.links::<f32>();
                let mut out: Vec<f32> = (0..16).map(|i| (rs2.rank * 16 + i) as f32).collect();
                ring_all_reduce_worker_into(&mut links, &mut out, &F32Sum, 4.0, &mut scratch)
                    .expect("survivor ring");
                worker.leave().expect("leave");
                (rs.rank, Some(err), out.len())
            }));
        }
        let mut results: Vec<(usize, Option<CollectiveError>, usize)> = Vec::new();
        for h in handles {
            results.push(h.join().expect("worker thread"));
        }
        registry.shutdown();
        let survivors: Vec<_> = results.iter().filter(|(_, e, _)| e.is_some()).collect();
        assert_eq!(survivors.len(), 2);
        for (_, _, out_len) in survivors {
            assert_eq!(*out_len, 16);
        }
    }

    #[test]
    fn late_joiner_is_admitted_next_round() {
        let registry = Registry::spawn(2).expect("registry");
        let addr = registry.addr();
        // Two founding workers run a round alone, then a third joins.
        let founders: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let r0 = w.next_round(0).expect("round 0");
                    assert_eq!(r0.n, 2);
                    (w, r0)
                })
            })
            .collect();
        let mut founders: Vec<_> = founders
            .into_iter()
            .map(|h| h.join().expect("founder"))
            .collect();

        // Register the joiner *before* the founders barrier again, so the
        // admission is deterministic (a JOIN races with BEGINs in general;
        // it simply lands at whichever barrier it precedes).
        let late = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join late");
        let joiner = std::thread::spawn(move || {
            let mut w = late;
            let rs = w.next_round(0).expect("joiner round");
            assert_eq!(rs.n, 3, "joiner sees the full fleet");
            assert_eq!(rs.round, 1, "joiner adopts the survivors' clock");
            let mut links = w.links::<f32>();
            let mut out = vec![1.0f32; 8];
            ring_all_reduce_worker_into(&mut links, &mut out, &F32Sum, 4.0, &mut Vec::new())
                .expect("ring");
            w.leave().expect("leave");
            out
        });
        let founder_handles: Vec<_> = founders
            .drain(..)
            .map(|(mut w, _)| {
                std::thread::spawn(move || {
                    let rs = w.next_round(1).expect("round 1");
                    assert_eq!(rs.n, 3, "founder sees the joiner");
                    assert!(rs.rebuilt, "epoch change rebuilds the mesh");
                    let mut links = w.links::<f32>();
                    let mut out = vec![1.0f32; 8];
                    ring_all_reduce_worker_into(
                        &mut links,
                        &mut out,
                        &F32Sum,
                        4.0,
                        &mut Vec::new(),
                    )
                    .expect("ring");
                    w.leave().expect("leave");
                    out
                })
            })
            .collect();
        let mut outs = vec![joiner.join().expect("joiner thread")];
        for h in founder_handles {
            outs.push(h.join().expect("founder thread"));
        }
        registry.shutdown();
        for out in outs {
            assert_eq!(out, vec![3.0f32; 8], "n=3 sum of ones");
        }
    }

    /// Connected localhost socket pair for framing-layer tests.
    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("dial");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn vectored_writer_frames_survive_boundary_sizes() {
        let (a, b) = stream_pair();
        let mut tx = FramedStream::new(a);
        let mut rx = FramedStream::new(b);
        // Sizes straddling the vectored header/payload split and the
        // reader's 64 KiB drain chunk.
        let sizes = [
            0usize,
            1,
            3,
            4,
            4096,
            64 * 1024 - 4,
            64 * 1024,
            64 * 1024 + 5,
        ];
        for &len in &sizes {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            tx.send_frame(&payload).expect("send");
        }
        for &len in &sizes {
            let got = rx.recv_frame(Duration::from_secs(5)).expect("recv");
            assert_eq!(got.len(), len, "frame length must round-trip");
            assert!(got.iter().enumerate().all(|(i, &v)| v == (i % 251) as u8));
        }
    }

    #[test]
    fn truncated_frame_times_out_then_completes() {
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        // Header promises 8 bytes; deliver only 3 — the frame must neither
        // be delivered short nor hang forever.
        raw.write_all(&8u32.to_le_bytes()).expect("header");
        raw.write_all(&[1, 2, 3]).expect("partial payload");
        assert!(matches!(
            rx.recv_frame(Duration::from_millis(50)),
            Err(RecvFail::TimedOut)
        ));
        // The partial bytes stay in the reassembly buffer: completing the
        // frame later delivers the original payload intact.
        raw.write_all(&[4, 5, 6, 7, 8]).expect("rest of payload");
        let got = rx
            .recv_frame(Duration::from_secs(5))
            .expect("completed frame");
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn oversized_frame_length_is_malformed_not_an_allocation() {
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        raw.write_all(&u32::MAX.to_le_bytes())
            .expect("bogus header");
        match rx.recv_frame(Duration::from_secs(5)) {
            Err(RecvFail::Malformed(detail)) => {
                assert!(detail.contains("exceeds"), "unexpected detail {detail}")
            }
            Err(_) => panic!("oversized length must be Malformed"),
            Ok(_) => panic!("oversized length must not deliver a frame"),
        }
    }

    #[test]
    fn slice_send_and_recv_into_roundtrip_bitwise() {
        let payload: Vec<f32> = (0..100)
            .map(|i| if i == 7 { f32::NAN } else { (i as f32).sin() })
            .collect();
        let expect = payload.clone();
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                links.send_slice(1, &payload).expect("send_slice");
                Vec::new()
            } else {
                let mut out = vec![0.0f32; 100];
                links.recv_into(0, &mut out).expect("recv_into");
                out
            }
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&results[1]), bits(&expect), "NaN bits must survive");
    }

    #[test]
    fn recv_into_length_mismatch_is_protocol_error() {
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                links.send_slice(1, &[1.0f32, 2.0]).expect("send_slice");
                None
            } else {
                let mut out = vec![0.0f32; 3];
                Some(links.recv_into(0, &mut out).expect_err("length mismatch"))
            }
        });
        assert!(matches!(
            results[1],
            Some(CollectiveError::Protocol { peer: 0, .. })
        ));
    }

    #[test]
    fn tiny_chunks_keep_ring_bitwise_identical() {
        // Force 2-element chunks so every segment crosses multiple chunk
        // boundaries (len 41 is deliberately not chunk- or n-aligned).
        for n in [2usize, 3] {
            let inputs = bufs(n, 41);
            let (expect, _) =
                threaded_ring_all_reduce(inputs.clone(), F32Sum, 4.0).expect("threaded");
            let inputs = Arc::new(inputs);
            let registry = Registry::spawn(n).expect("registry");
            let addr = registry.addr();
            let mut handles = Vec::new();
            for _ in 0..n {
                let inputs = Arc::clone(&inputs);
                handles.push(std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let rs = w.next_round(0).expect("round");
                    w.mesh_mut().set_chunk_bytes(8); // two f32 lanes per frame
                    let mut links = w.links::<f32>();
                    let mut buf = inputs[rs.rank].clone();
                    let (sent, recv) = ring_all_reduce_worker_into(
                        &mut links,
                        &mut buf,
                        &F32Sum,
                        4.0,
                        &mut Vec::new(),
                    )
                    .expect("chunked ring");
                    w.leave().expect("leave");
                    (rs.rank, (buf, sent, recv))
                }));
            }
            let mut results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect();
            registry.shutdown();
            results.sort_by_key(|(rank, _)| *rank);
            for (rank, (buf, sent, recv)) in results {
                assert_eq!(buf, expect[rank], "n={n} rank={rank} under tiny chunks");
                // Traffic is counted per segment, so chunking must not
                // change the accounting either.
                assert!(sent > 0 && recv > 0);
            }
        }
    }

    #[test]
    fn mesh_recv_times_out_on_silent_peer() {
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                // Wedge: never send; peer must time out, not hang.
                std::thread::sleep(Duration::from_millis(300));
                Ok(vec![])
            } else {
                links.mesh.set_recv_deadline(Duration::from_millis(50));
                MessageLinks::recv(links, 0)
            }
        });
        assert!(matches!(
            results[1],
            Err(CollectiveError::Timeout { peer: 0, .. })
        ));
    }
}
