//! TCP carrier for the fault layer: [`Frame`]s over a real socket mesh.
//!
//! [`FaultyLinks`](crate::FaultyLinks) is generic over [`FrameTransport`];
//! this module supplies the socket implementation so the *same*
//! ack-and-resend protocol — and the same chaos suite — runs over
//! `gcs-collectives`' [`TcpMesh`] instead of in-process channels. Injected faults stay deterministic (the plan is
//! a pure function of `(seed, src, dst, seq, attempt)`); only the carrier
//! underneath changes.
//!
//! ## Frame encoding
//!
//! One mesh frame per [`Frame`], tag-prefixed:
//!
//! ```text
//! Data: [0u8][seq: u64 LE][payload: elems × WireElem::BYTES, LE]
//! Ack:  [1u8][seq: u64 LE]
//! ```

use std::marker::PhantomData;
use std::time::Duration;

use gcs_collectives::error::CollectiveError;
use gcs_collectives::tcp::{decode_elems, TcpMesh, WireElem};
use gcs_trace::bytes::{put_elems, put_u64, Cursor};

use crate::links::{Frame, FrameTransport};

const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;

/// A typed [`FrameTransport`] view over a borrowed [`TcpMesh`]: encodes
/// [`Frame`]s onto raw mesh frames. Borrowing (rather than owning) the mesh
/// lets elastic callers keep the mesh across rounds, exactly like
/// `TcpLinks`.
pub struct TcpFrameLinks<'m, T: WireElem> {
    mesh: &'m mut TcpMesh,
    _elem: PhantomData<T>,
}

impl<'m, T: WireElem> TcpFrameLinks<'m, T> {
    /// Wraps a mesh in a frame-carrier view.
    pub fn new(mesh: &'m mut TcpMesh) -> TcpFrameLinks<'m, T> {
        TcpFrameLinks {
            mesh,
            _elem: PhantomData,
        }
    }
}

fn encode_frame<T: WireElem>(frame: &Frame<T>) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        Frame::Data { seq, payload } => {
            out.push(TAG_DATA);
            put_u64(&mut out, *seq);
            put_elems(&mut out, payload);
        }
        Frame::Ack { seq } => {
            out.push(TAG_ACK);
            put_u64(&mut out, *seq);
        }
    }
    out
}

fn decode_frame<T: WireElem>(bytes: &[u8], peer: usize) -> Result<Frame<T>, CollectiveError> {
    let malformed = |detail: String| CollectiveError::Protocol { peer, detail };
    let mut c = Cursor::new(bytes);
    let (Ok(tag), Ok(seq)) = (c.u8(), c.u64()) else {
        return Err(malformed(format!(
            "frame of {} bytes has no header",
            bytes.len()
        )));
    };
    match tag {
        TAG_DATA => Ok(Frame::Data {
            seq,
            payload: decode_elems(c.rest(), peer)?,
        }),
        TAG_ACK if c.remaining() == 0 => Ok(Frame::Ack { seq }),
        TAG_ACK => Err(malformed(format!(
            "ack frame carries {} stray bytes",
            c.remaining()
        ))),
        tag => Err(malformed(format!("unknown frame tag {tag}"))),
    }
}

impl<T: WireElem> FrameTransport<T> for TcpFrameLinks<'_, T> {
    fn rank(&self) -> usize {
        self.mesh.rank()
    }

    fn n(&self) -> usize {
        self.mesh.n()
    }

    fn send_frame(&mut self, peer: usize, frame: Frame<T>) -> Result<(), CollectiveError> {
        self.mesh.send_raw(peer, &encode_frame(&frame))
    }

    fn recv_frames(
        &mut self,
        peer: usize,
        timeout: Duration,
    ) -> Result<Vec<Frame<T>>, CollectiveError> {
        let raw = self.mesh.recv_raw_timeout(peer, timeout)?;
        Ok(vec![decode_frame(&raw, peer)?])
    }

    fn try_recv_frames(&mut self, peer: usize) -> Result<Option<Vec<Frame<T>>>, CollectiveError> {
        match self.mesh.try_recv_raw(peer)? {
            Some(raw) => Ok(Some(vec![decode_frame(&raw, peer)?])),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_encoding_roundtrips() {
        let data = Frame::Data {
            seq: 7,
            payload: vec![1.5f32, -0.0, f32::MAX],
        };
        let enc = encode_frame(&data);
        match decode_frame::<f32>(&enc, 0).expect("well-formed") {
            Frame::Data { seq, payload } => {
                assert_eq!(seq, 7);
                assert_eq!(payload.len(), 3);
                assert_eq!(payload[0], 1.5);
                assert_eq!(payload[1].to_bits(), (-0.0f32).to_bits());
                assert_eq!(payload[2], f32::MAX);
            }
            other => panic!("decoded {other:?}"),
        }
        let ack = Frame::Ack::<f32> { seq: 42 };
        let enc = encode_frame(&ack);
        assert!(matches!(
            decode_frame::<f32>(&enc, 0).expect("well-formed"),
            Frame::Ack { seq: 42 }
        ));
        assert!(decode_frame::<f32>(&[9, 0, 0], 0).is_err());
        assert!(decode_frame::<f32>(&[2, 0, 0, 0, 0, 0, 0, 0, 0], 0).is_err());
    }
}
