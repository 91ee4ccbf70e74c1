//! Synchronous tenant client: one connection, one worker rank.
//!
//! Every request reads exactly one reply frame; retryable rejects
//! (`QueueFull`, `TenantBusy`, `NotReady`) surface as
//! [`ClientError::Rejected`] so callers decide their own backoff — except
//! the convenience [`TenantClient::run_round`], which retries them with the
//! daemon's hints until `deadline` and only fails on fatal codes.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gcs_collectives::{FramedStream, RecvFail};

use crate::proto::{
    decode_reject, encode_bye, encode_fetch, encode_hello, encode_submit, Cursor, Reject,
    AGGD_MAGIC, T_BYE_OK, T_FETCH_OK, T_HELLO_OK, T_REJECT, T_SUBMIT_OK,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon answered with a typed REJECT.
    Rejected(Reject),
    /// The connection closed (daemon shutdown, session crash plan, or
    /// post-reject close).
    Closed,
    /// No reply within the client's deadline.
    TimedOut,
    /// The daemon sent something this client cannot parse.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(r) => write!(f, "rejected: {r}"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::TimedOut => write!(f, "timed out"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

/// One worker's session with the daemon.
pub struct TenantClient {
    fs: FramedStream,
    deadline: Duration,
    enc: Vec<u8>,
}

impl TenantClient {
    /// Connects, writes the session magic, and completes the HELLO
    /// handshake for `cfg`.
    pub fn connect(
        addr: SocketAddr,
        cfg: &crate::proto::TenantConfig,
        deadline: Duration,
    ) -> Result<TenantClient, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, deadline)
            .map_err(|e| ClientError::Protocol(format!("connect: {e}")))?;
        use std::io::Write;
        let mut stream = stream;
        stream
            .write_all(&AGGD_MAGIC)
            .map_err(|_| ClientError::Closed)?;
        let mut client = TenantClient {
            fs: FramedStream::new(stream),
            deadline,
            enc: Vec::with_capacity(4 * cfg.dim + 128),
        };
        encode_hello(&mut client.enc, cfg);
        client.send_enc()?;
        client.recv_reply(T_HELLO_OK, "hello", |_| Ok(()))?;
        Ok(client)
    }

    fn send_enc(&mut self) -> Result<(), ClientError> {
        self.fs
            .send_frame(&self.enc)
            .map_err(|_| ClientError::Closed)
    }

    /// Reads one reply frame and decodes it where it landed in the
    /// reassembly buffer: a REJECT becomes `Err(Rejected)`, the tag `want`
    /// hands the rest of the payload to `body`, and any other tag is a
    /// protocol error naming the request.
    fn recv_reply<R>(
        &mut self,
        want: u8,
        what: &str,
        body: impl FnOnce(&mut Cursor<'_>) -> Result<R, String>,
    ) -> Result<R, ClientError> {
        let decoded =
            self.fs.recv_frame_with(self.deadline, |frame| {
                let mut c = Cursor::new(frame);
                match c.u8().map_err(String::from) {
                    Ok(T_REJECT) => Err(decode_reject(&mut c)
                        .map_or_else(ClientError::Protocol, ClientError::Rejected)),
                    Ok(tag) if tag == want => body(&mut c).map_err(ClientError::Protocol),
                    Ok(tag) => Err(ClientError::Protocol(format!("{what} got tag {tag:#x}"))),
                    Err(detail) => Err(ClientError::Protocol(detail)),
                }
            });
        match decoded {
            Ok(reply) => reply,
            Err(RecvFail::Closed) => Err(ClientError::Closed),
            Err(RecvFail::TimedOut) => Err(ClientError::TimedOut),
            Err(RecvFail::Malformed(detail)) => Err(ClientError::Protocol(detail)),
        }
    }

    /// Submits one worker gradient for `round`.
    pub fn submit(&mut self, round: u64, rank: usize, grad: &[f32]) -> Result<(), ClientError> {
        encode_submit(&mut self.enc, round, rank, grad);
        self.send_enc()?;
        self.recv_reply(T_SUBMIT_OK, "submit", |c| match c.u64()? {
            got if got == round => Ok(()),
            got => Err(format!("submit_ok for round {got}, wanted {round}")),
        })
    }

    /// Fetches `round`'s folded estimate into `out` (single attempt — a
    /// not-yet-folded round is `Err(Rejected(NotReady))`).
    pub fn fetch_into(&mut self, round: u64, out: &mut Vec<f32>) -> Result<(), ClientError> {
        encode_fetch(&mut self.enc, round);
        self.send_enc()?;
        self.recv_reply(T_FETCH_OK, "fetch", |c| {
            let got = c.u64()?;
            if got != round {
                return Err(format!("fetch_ok for round {got}, wanted {round}"));
            }
            if !c.remaining().is_multiple_of(4) {
                return Err("ragged estimate payload".into());
            }
            Ok(c.f32s_into(c.remaining() / 4, out)?)
        })
    }

    /// Submits and fetches one round, retrying retryable rejects with the
    /// daemon's backoff hints until the client deadline expires. Returns
    /// how many retryable rejects were absorbed.
    pub fn run_round(
        &mut self,
        round: u64,
        rank: usize,
        grad: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<u64, ClientError> {
        let t0 = Instant::now();
        let mut rejects = 0u64;
        loop {
            match self.submit(round, rank, grad) {
                Ok(()) => break,
                Err(ClientError::Rejected(r)) if r.code.retryable() => {
                    rejects += 1;
                    if t0.elapsed() > self.deadline {
                        return Err(ClientError::TimedOut);
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(r.retry_after_ms.max(1))));
                }
                Err(e) => return Err(e),
            }
        }
        loop {
            match self.fetch_into(round, out) {
                Ok(()) => return Ok(rejects),
                Err(ClientError::Rejected(r)) if r.code.retryable() => {
                    rejects += 1;
                    if t0.elapsed() > self.deadline {
                        return Err(ClientError::TimedOut);
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(r.retry_after_ms.max(1))));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn bye(mut self) -> Result<(), ClientError> {
        encode_bye(&mut self.enc);
        self.send_enc()?;
        self.recv_reply(T_BYE_OK, "bye", |_| Ok(()))
    }

    /// Raw framed access, for tests that violate the protocol on purpose.
    pub fn raw_stream(&mut self) -> &mut FramedStream {
        &mut self.fs
    }
}
