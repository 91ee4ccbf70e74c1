//! The frame format, alone: `[len: u32 LE][payload]` over a `TcpStream`,
//! with bounded blocking reads (a dead or wedged peer surfaces as a typed
//! [`RecvFail`], never a hung socket read). Every framed protocol in the
//! workspace — mesh links, the rendezvous registry, telemetry, the
//! aggregation daemon — rides this one carrier.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload; larger lengths are treated as a
/// protocol violation (corrupt length prefix), not an allocation request.
const MAX_FRAME_BYTES: usize = 1 << 30;
const HEADER_BYTES: usize = 4;
/// How long a session handler blocks in one read before re-checking its
/// stop flag.
const POLL_SLICE: Duration = Duration::from_millis(200);

fn header(payload_len: usize) -> [u8; HEADER_BYTES] {
    (payload_len as u32).to_le_bytes()
}

/// Appends one frame to `out`: the payload is whatever `build` appends, and
/// its length is written into the header afterwards. For writers that queue
/// frames in a buffer of their own instead of calling
/// [`FramedStream::send_frame`].
pub fn push_frame(out: &mut Vec<u8>, build: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER_BYTES]);
    build(out);
    let payload_len = out.len() - at - HEADER_BYTES;
    out[at..at + HEADER_BYTES].copy_from_slice(&header(payload_len));
}

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
        let header = header(payload.len());
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
        let Some(header) = self.rbuf.first_chunk::<HEADER_BYTES>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(RecvFail::Malformed(format!(
                "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"
            )));
        }
        if self.rbuf.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        Ok(Some(len))
    }

    /// Pops a complete frame from the reassembly buffer, if one is there.
    pub fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, RecvFail> {
        match self.peek_frame_len()? {
            None => Ok(None),
            Some(len) => {
                let payload = self.rbuf[HEADER_BYTES..HEADER_BYTES + len].to_vec();
                self.rbuf.drain(..HEADER_BYTES + len);
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
                let out = consume(&self.rbuf[HEADER_BYTES..HEADER_BYTES + len]);
                self.rbuf.drain(..HEADER_BYTES + len);
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

    /// For session handlers: the next frame, waiting in slices so a set
    /// `stop` flag is noticed. `TimedOut` means `idle` passed without a
    /// frame, or `stop` was set.
    pub fn recv_frame_until(
        &mut self,
        idle: Duration,
        stop: &AtomicBool,
    ) -> Result<Vec<u8>, RecvFail> {
        let t0 = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            let Some(left) = idle.checked_sub(t0.elapsed()) else {
                break;
            };
            match self.recv_frame(left.min(POLL_SLICE)) {
                Err(RecvFail::TimedOut) => {}
                done => return done,
            }
        }
        Err(RecvFail::TimedOut)
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
