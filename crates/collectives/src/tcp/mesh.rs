//! The typed element codec's collective-facing wrappers, the
//! connection-per-directed-link [`TcpMesh`], and the [`MessageLinks`]
//! adapter over it.

use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gcs_trace::bytes::{get_elems, put_u32, put_u64, Cursor, WireElem};

use super::framing::{FramedStream, RecvFail};
use super::listener::POLL_SLEEP;
use crate::error::CollectiveError;
use crate::reduce::ReduceOp;
use crate::transport::MessageLinks;

/// Magic opening every mesh link's `(magic, epoch, from)` hello.
const MESH_MAGIC: [u8; 4] = *b"GCSL";
const HELLO_BYTES: usize = 16;

/// Encodes a slice of elements as a contiguous little-endian payload in a
/// caller-owned buffer (resized to the payload, capacity reused) — what the
/// mesh's persistent send scratch runs on. Every byte is overwritten, so a
/// buffer already the payload's length is never zero-filled first.
pub fn encode_elems_into<T: WireElem>(data: &[T], out: &mut Vec<u8>) {
    out.resize(data.len() * T::BYTES, 0);
    for (chunk, v) in out.chunks_exact_mut(T::BYTES).zip(data) {
        v.write_le(chunk);
    }
}

/// A length that is not a multiple of the element width is a framing bug
/// on `peer`'s side.
fn check_width<T: WireElem>(bytes: &[u8], peer: usize) -> Result<(), CollectiveError> {
    if bytes.len().is_multiple_of(T::BYTES) {
        return Ok(());
    }
    Err(CollectiveError::Protocol {
        peer,
        detail: format!(
            "payload of {} bytes is not a multiple of element width {}",
            bytes.len(),
            T::BYTES
        ),
    })
}

/// Decodes a payload produced by [`encode_elems_into`].
pub fn decode_elems<T: WireElem>(bytes: &[u8], peer: usize) -> Result<Vec<T>, CollectiveError> {
    check_width::<T>(bytes, peer)?;
    Ok(bytes.chunks_exact(T::BYTES).map(T::read_le).collect())
}

/// A payload that is not exactly `len` elements is a framing bug on
/// `peer`'s side.
fn check_elems<T: WireElem>(bytes: &[u8], len: usize, peer: usize) -> Result<(), CollectiveError> {
    check_width::<T>(bytes, peer)?;
    let elems = bytes.len() / T::BYTES;
    if elems != len {
        return Err(CollectiveError::Protocol {
            peer,
            detail: format!("expected {len} elements, peer sent {elems}"),
        });
    }
    Ok(())
}

/// Decodes a payload produced by [`encode_elems_into`] directly into `out` —
/// no owned `Vec` materialized. The payload must hold *exactly*
/// `out.len()` elements; a width mismatch or element-count mismatch is a
/// framing bug on `peer`'s side and surfaces as a typed protocol error.
pub fn decode_elems_into<T: WireElem>(
    bytes: &[u8],
    out: &mut [T],
    peer: usize,
) -> Result<(), CollectiveError> {
    check_elems::<T>(bytes, out.len(), peer)?;
    get_elems(bytes, out);
    Ok(())
}

/// Folds a payload of `acc.len()` encoded elements into `acc` with `op`:
/// each stack block of the payload is decoded once and handed to
/// `op.reduce_slice`, so an op's bulk kernel runs over sockets too — and
/// the bits are those of `reduce_slice` over the whole decoded payload.
fn fold_elems<T: WireElem, O: ReduceOp<T>>(bytes: &[u8], acc: &mut [T], op: &O) {
    /// Elements decoded per stack block.
    const BLOCK: usize = 64;
    let Some(first) = acc.first() else {
        return;
    };
    let mut block: [T; BLOCK] = std::array::from_fn(|_| first.clone());
    for (acc, bytes) in acc.chunks_mut(BLOCK).zip(bytes.chunks(BLOCK * T::BYTES)) {
        let xs = &mut block[..acc.len()];
        get_elems(bytes, xs);
        op.reduce_slice(acc, xs);
    }
}

/// Default bound on blocking mesh receives.
pub const DEFAULT_TCP_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Default pipelining chunk (bytes): large messages are streamed through
/// the collective bodies in pieces of at most this size so reduce compute
/// overlaps wire transfer.
pub const DEFAULT_TCP_CHUNK_BYTES: usize = 64 * 1024;

/// What a failed frame read from `peer` means to a collective.
fn recv_error(peer: usize, fail: RecvFail) -> CollectiveError {
    match fail {
        RecvFail::Closed => CollectiveError::PeerLost { peer },
        RecvFail::TimedOut => CollectiveError::Timeout { peer, attempts: 1 },
        RecvFail::Malformed(detail) => CollectiveError::Protocol { peer, detail },
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
    out: Vec<Option<FramedStream>>,
    inn: Vec<Option<FramedStream>>,
    recv_deadline: Duration,
    /// Pipelining chunk bound (bytes) advertised to the collective bodies.
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
        let mut out: Vec<Option<FramedStream>> = (0..n).map(|_| None).collect();
        let mut inn: Vec<Option<FramedStream>> = (0..n).map(|_| None).collect();
        let mut hello = Vec::with_capacity(HELLO_BYTES);
        hello.extend_from_slice(&MESH_MAGIC);
        put_u64(&mut hello, epoch);
        put_u32(&mut hello, rank as u32);

        // Dial out-links. Peers registered only after binding their
        // listeners, so refusals are transient (SYN backlog churn at worst);
        // retry inside the build deadline.
        for (peer, addr) in peers.iter().enumerate() {
            if peer == rank {
                continue;
            }
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) if t0.elapsed() < build_deadline => std::thread::sleep(POLL_SLEEP),
                    Err(_) => return Err(CollectiveError::PeerLost { peer }),
                }
            };
            stream
                .write_all(&hello)
                .map_err(|_| CollectiveError::PeerLost { peer })?;
            out[peer] = Some(FramedStream::new(stream));
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
                    let mut hello = [0u8; HELLO_BYTES];
                    let mut s = stream;
                    if s.read_exact(&mut hello).is_err() {
                        continue;
                    }
                    let mut c = Cursor::new(&hello);
                    let from = match (c.take(4), c.u64(), c.u32()) {
                        (Ok(magic), Ok(e), Ok(from)) if magic == MESH_MAGIC && e == epoch => {
                            from as usize
                        }
                        _ => continue, // stale or bogus; drop it
                    };
                    if from >= n || from == rank {
                        continue;
                    }
                    let _ = s.set_read_timeout(None);
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

        let mut mesh = TcpMesh {
            rank,
            n,
            out,
            inn,
            recv_deadline: DEFAULT_TCP_RECV_DEADLINE,
            chunk_bytes: DEFAULT_TCP_CHUNK_BYTES,
            sbuf: Vec::new(),
        };
        mesh.reserve_in_links();
        Ok(mesh)
    }

    /// Sizes every in-link's reassembly buffer for chunk-bounded frames, so
    /// a peer running ahead never grows one during a round.
    fn reserve_in_links(&mut self) {
        for link in self.inn.iter_mut().flatten() {
            link.reserve_frames(self.chunk_bytes);
        }
    }

    /// This worker's rank in the current epoch.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size in the current epoch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bounds blocking receives (see [`TcpMesh::recv_raw`]).
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.recv_deadline = deadline;
    }

    /// Overrides the pipelining chunk bound ([`DEFAULT_TCP_CHUNK_BYTES`] at
    /// build): the test hook that forces tiny chunks (chunking-boundary
    /// coverage). Every rank must use the same value —
    /// both ends of a link derive the frame count from it.
    pub fn set_chunk_bytes(&mut self, bytes: usize) {
        self.chunk_bytes = bytes.max(1);
        self.reserve_in_links();
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
        self.recv_payload(peer, |payload| decode_elems_into(payload, out, peer))
    }

    /// Blocks up to the mesh's receive deadline for one frame from `peer`
    /// and hands its payload to `consume` where it lies in the link's
    /// reassembly buffer.
    fn recv_payload<R>(
        &mut self,
        peer: usize,
        consume: impl FnOnce(&[u8]) -> Result<R, CollectiveError>,
    ) -> Result<R, CollectiveError> {
        let deadline = self.recv_deadline;
        self.in_link(peer)
            .recv_frame_with(deadline, consume)
            .unwrap_or_else(|fail| Err(recv_error(peer, fail)))
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
        self.out_link(peer)
            .send_frame(payload)
            .map_err(|_| CollectiveError::PeerLost { peer })
    }

    /// Receives one raw frame from `peer`, blocking up to `deadline`.
    pub fn recv_raw_timeout(
        &mut self,
        peer: usize,
        deadline: Duration,
    ) -> Result<Vec<u8>, CollectiveError> {
        self.in_link(peer)
            .recv_frame(deadline)
            .map_err(|fail| recv_error(peer, fail))
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
        self.in_link(peer)
            .try_recv_frame()
            .map_err(|fail| recv_error(peer, fail))
    }
}

/// [`MessageLinks`] over a [`TcpMesh`]: the adapter that lets
/// `ring_all_reduce_worker_into` & friends run over sockets unchanged. Borrows
/// the mesh so elastic callers ([`FleetWorker`](super::FleetWorker)) can keep the mesh across
/// rounds and hand out fresh typed views.
pub struct TcpLinks<'m, T: WireElem> {
    pub(super) mesh: &'m mut TcpMesh,
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

    /// Folds the frame payload into `acc` where it lies in the reassembly
    /// buffer: each received byte is read once, by the fold. `scratch` is
    /// not touched.
    fn recv_reduce<O: ReduceOp<T>>(
        &mut self,
        peer: usize,
        acc: &mut [T],
        op: &O,
        _scratch: &mut [T],
    ) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        self.mesh.recv_payload(peer, |payload| {
            check_elems::<T>(payload, acc.len(), peer)?;
            fold_elems(payload, acc, op);
            Ok(())
        })
    }

    fn chunk_elems(&self) -> usize {
        (self.mesh.chunk_bytes / T::BYTES).max(1)
    }
}
