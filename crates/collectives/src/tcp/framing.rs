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
/// Bounds on the room one read asks for: the part of the head frame still
/// missing, clamped. The floor keeps small-frame streams small; the ceiling
/// means a length prefix grows the reassembly buffer by at most one window
/// per read, so it buys nothing beyond the bytes that actually arrive.
const MIN_READ_WINDOW: usize = 4 * 1024;
const MAX_READ_WINDOW: usize = 64 * 1024 + HEADER_BYTES;
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
///
/// Each received byte is copied once, by the kernel, into the reassembly
/// buffer; a frame's payload is then handed out where it landed, and
/// consuming it only advances a cursor. The unconsumed rest — less than
/// one frame — moves to the front only when a read needs the room.
pub struct FramedStream {
    stream: TcpStream,
    /// Kept at its high-water length: `rbuf[head..end]` holds the bytes
    /// received but not yet consumed, and reads land in `rbuf[end..]`.
    rbuf: Vec<u8>,
    head: usize,
    end: usize,
    /// The read timeout this stream last set on the socket; `None` until it
    /// sets one (an accepted stream arrives with the listener's).
    read_timeout: Option<Duration>,
}

impl FramedStream {
    pub fn new(stream: TcpStream) -> FramedStream {
        let _ = stream.set_nodelay(true);
        FramedStream {
            stream,
            rbuf: Vec::new(),
            head: 0,
            end: 0,
            read_timeout: None,
        }
    }

    /// Sizes the reassembly buffer for frames of up to `max_payload` bytes:
    /// one partial frame plus one read window, so such frames never grow it
    /// later, however far ahead the peer runs.
    pub(super) fn reserve_frames(&mut self, max_payload: usize) {
        self.grow_to(HEADER_BYTES + max_payload + MIN_READ_WINDOW);
    }

    fn grow_to(&mut self, len: usize) {
        if let Some(more) = len.checked_sub(self.rbuf.len()) {
            self.rbuf.reserve_exact(more);
            self.rbuf.resize(len, 0);
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

    /// The frame's length prefix, once its header has arrived.
    fn head_len(&self) -> Option<usize> {
        let header = self.rbuf[self.head..self.end].first_chunk::<HEADER_BYTES>()?;
        Some(u32::from_le_bytes(*header) as usize)
    }

    /// Length of the complete frame at the head of the reassembly buffer,
    /// if one has fully arrived. Shared validation for the owned and
    /// in-place receive paths.
    fn peek_frame_len(&self) -> Result<Option<usize>, RecvFail> {
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            return Err(RecvFail::Malformed(format!(
                "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"
            )));
        }
        if self.end - self.head < HEADER_BYTES + len {
            return Ok(None);
        }
        Ok(Some(len))
    }

    /// Hands the complete head frame's payload (`len` bytes) to `consume`
    /// where it lies, then consumes the frame.
    fn take_frame<R>(&mut self, len: usize, consume: impl FnOnce(&[u8]) -> R) -> R {
        let at = self.head + HEADER_BYTES;
        let out = consume(&self.rbuf[at..at + len]);
        self.head = at + len;
        if self.head == self.end {
            (self.head, self.end) = (0, 0);
        }
        out
    }

    /// The one read routine: makes room for one window after `end` — moving
    /// the unconsumed partial frame to the front, and growing the buffer
    /// only if that is still not enough — then reads once into `rbuf[end..]`.
    fn read_more(&mut self) -> std::io::Result<usize> {
        let pending = self.end - self.head;
        let frame = self
            .head_len()
            .map_or(HEADER_BYTES, |len| HEADER_BYTES + len);
        let window = frame
            .saturating_sub(pending)
            .clamp(MIN_READ_WINDOW, MAX_READ_WINDOW);
        if self.rbuf.len() - self.end < window {
            self.rbuf.copy_within(self.head..self.end, 0);
            (self.head, self.end) = (0, pending);
            self.grow_to(pending + window);
        }
        let k = self.stream.read(&mut self.rbuf[self.end..])?;
        self.end += k;
        Ok(k)
    }

    /// Bounds the next blocking read by `remaining`. The socket keeps its
    /// timeout between reads, so a new one is set only when the one last
    /// set would overshoot `remaining` (by more than a sixteenth of it, at
    /// most 1 ms) or is unknown — in the steady state of a mesh or session
    /// link, never. One under half of `remaining` is raised too, so a short
    /// deadline once does not turn later long waits into polling.
    fn bound_read(&mut self, remaining: Duration) {
        // recv(2) timeouts of zero mean "block forever"; clamp up.
        let want = remaining.max(Duration::from_millis(1));
        let slack = (want / 16).min(Duration::from_millis(1));
        let fits = |set: Duration| set <= want.saturating_add(slack) && set >= want / 2;
        if !self.read_timeout.is_some_and(fits) {
            self.read_timeout = self.stream.set_read_timeout(Some(want)).ok().map(|()| want);
        }
    }

    /// Pops a complete frame from the reassembly buffer, if one is there.
    pub fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, RecvFail> {
        Ok(self
            .peek_frame_len()?
            .map(|len| self.take_frame(len, <[u8]>::to_vec)))
    }

    /// Blocks for up to `deadline` assembling one frame.
    pub fn recv_frame(&mut self, deadline: Duration) -> Result<Vec<u8>, RecvFail> {
        self.recv_frame_with(deadline, |payload| payload.to_vec())
    }

    /// Blocks for up to `deadline` assembling one frame, then hands its
    /// payload to `consume` *in place* in the reassembly buffer — the
    /// zero-allocation receive path: the payload bytes are decoded (or
    /// folded) where the kernel put them, never copied into an owned `Vec`.
    pub fn recv_frame_with<R>(
        &mut self,
        deadline: Duration,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, RecvFail> {
        let t0 = Instant::now();
        loop {
            if let Some(len) = self.peek_frame_len()? {
                return Ok(self.take_frame(len, consume));
            }
            let remaining = deadline
                .checked_sub(t0.elapsed())
                .ok_or(RecvFail::TimedOut)?;
            self.bound_read(remaining);
            match self.read_more() {
                Ok(0) => return Err(RecvFail::Closed),
                Ok(_) => {}
                // A read that timed out early (the timeout set before was
                // shorter than this deadline) goes round again: the
                // deadline, not the socket, decides `TimedOut`.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
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

    /// Non-blocking poll: reads whatever bytes are ready until one frame is
    /// complete, then pops at most one frame.
    pub fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, RecvFail> {
        let _ = self.stream.set_nonblocking(true);
        let mut drained = Ok(());
        while let Ok(None) = self.peek_frame_len() {
            match self.read_more() {
                Ok(0) => drained = Err(RecvFail::Closed),
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => drained = Err(RecvFail::Closed),
            }
            break;
        }
        let _ = self.stream.set_nonblocking(false);
        match (self.pop_frame()?, drained) {
            // A buffered frame is still deliverable even off a closed stream.
            (Some(frame), _) => Ok(Some(frame)),
            (None, Err(fail)) => Err(fail),
            (None, Ok(())) => Ok(None),
        }
    }
}
