//! The byte layer under every wire format in the workspace: little-endian
//! writers appending to a `Vec<u8>`, one bounds-checked [`Cursor`] over
//! untrusted input, and the fixed-width element codec ([`WireElem`]) that
//! collective payloads, the aggregation daemon and the fault carrier share.
//! Span shipping ([`crate::wire`]), the fleet registry format, telemetry
//! frames, the rendezvous registry and the aggd protocol are message
//! layouts over these primitives; none indexes a received buffer itself.
//!
//! It lives in `gcs-trace` because that is the one crate every wire user
//! already depends on, and it depends on nothing.

use std::fmt;

/// Why a read from a [`Cursor`] failed. Allocation-free; message decoders
/// turn it into their own `String` errors with `?`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A read of `wanted` bytes at offset `at` found only `have` left.
    Truncated {
        at: usize,
        wanted: usize,
        have: usize,
    },
    /// A length-prefixed string is not UTF-8.
    BadUtf8,
    /// A count prefix announces more elements than the rest of the payload
    /// could hold at their minimum encoded size.
    CountExceedsPayload { count: usize },
    /// `extra` bytes follow a payload that must end the message.
    Trailing { extra: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { at, wanted, have } => {
                write!(f, "truncated: wanted {wanted} bytes at {at}, have {have}")
            }
            WireError::BadUtf8 => write!(f, "non-UTF-8 string"),
            WireError::CountExceedsPayload { count } => write!(f, "count {count} exceeds payload"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
        }
    }
}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// Width of a length or count prefix. The formats disagree (span names are
/// `u16`-prefixed, fleet names and counts `u32`, telemetry and aggd strings
/// `u64`), so the width is named at each call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prefix {
    U16,
    U32,
    U64,
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (NaN payloads survive).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string, cut at the most bytes the prefix
/// can count so the prefix always matches what follows it.
pub fn put_str(out: &mut Vec<u8>, prefix: Prefix, s: &str) {
    let len = s.len();
    let len = match prefix {
        Prefix::U16 => len.min(u16::MAX as usize),
        Prefix::U32 => len.min(u32::MAX as usize),
        Prefix::U64 => len,
    };
    match prefix {
        Prefix::U16 => put_u16(out, len as u16),
        Prefix::U32 => put_u32(out, len as u32),
        Prefix::U64 => put_u64(out, len as u64),
    }
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// Element types that cross a byte-oriented transport at a fixed width and
/// round-trip exactly. Encoding is little-endian, so a value reduced over
/// TCP is bit-identical to the same value reduced in process — the property
/// the differential suites assert.
pub trait WireElem: Clone + Send + 'static {
    /// Encoded width in bytes.
    const BYTES: usize;
    /// Writes this element into `out`, exactly [`WireElem::BYTES`] long.
    fn write_le(&self, out: &mut [u8]);
    /// Reads one element from exactly [`WireElem::BYTES`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! wire_elem {
    ($($t:ty),*) => {$(
        impl WireElem for $t {
            const BYTES: usize = size_of::<$t>();
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("chunk is BYTES long"))
            }
        }
    )*};
}
wire_elem!(f32, u32);

/// Appends `data` as contiguous little-endian elements. Sizing the buffer
/// first and walking it in `BYTES`-wide chunks is the form the compiler
/// turns into a wide copy; nothing is called per element.
pub fn put_elems<T: WireElem>(out: &mut Vec<u8>, data: &[T]) {
    let at = out.len();
    out.resize(at + data.len() * T::BYTES, 0);
    for (chunk, v) in out[at..].chunks_exact_mut(T::BYTES).zip(data) {
        v.write_le(chunk);
    }
}

/// Decodes `out.len()` elements from the front of `bytes`; the caller has
/// checked that `bytes` holds them.
pub fn get_elems<T: WireElem>(bytes: &[u8], out: &mut [T]) {
    debug_assert!(bytes.len() >= out.len() * T::BYTES);
    for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
        *slot = T::read_le(chunk);
    }
}

/// A bounds-checked little-endian reader over one untrusted message. Every
/// read is checked against the bytes actually present, and a length or
/// count prefix is never trusted beyond them.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (at, wanted, have) = (self.pos, n, self.remaining());
        if wanted > have {
            return Err(WireError::Truncated { at, wanted, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes everything left (an embedded message that ends the frame).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length or count prefix. A value past `usize` saturates, which
    /// every caller then refuses against `remaining`.
    fn prefix(&mut self, prefix: Prefix) -> Result<usize, WireError> {
        Ok(match prefix {
            Prefix::U16 => usize::from(self.u16()?),
            Prefix::U32 => usize::try_from(self.u32()?).unwrap_or(usize::MAX),
            Prefix::U64 => usize::try_from(self.u64()?).unwrap_or(usize::MAX),
        })
    }

    /// Length-prefixed UTF-8 string; the length is checked against the
    /// bytes present before anything is copied.
    pub fn str(&mut self, prefix: Prefix) -> Result<String, WireError> {
        let len = self.prefix(prefix)?;
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(WireError::BadUtf8),
        }
    }

    /// An element count, refused unless `count` elements of at least
    /// `min_elem_bytes` each fit in what is left — the guard that keeps a
    /// corrupt prefix from sizing an allocation.
    pub fn count(&mut self, prefix: Prefix, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.prefix(prefix)?;
        if count.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::CountExceedsPayload { count });
        }
        Ok(count)
    }

    /// Decodes the rest of the message as exactly `expect` little-endian
    /// `f32`s into `out` (cleared first; its capacity is reused). Fewer
    /// bytes are [`WireError::Truncated`], more are [`WireError::Trailing`].
    pub fn f32s_into(&mut self, expect: usize, out: &mut Vec<f32>) -> Result<(), WireError> {
        let bytes = self.take(expect.saturating_mul(f32::BYTES))?;
        let extra = self.remaining();
        if extra != 0 {
            return Err(WireError::Trailing { extra });
        }
        out.clear();
        out.resize(expect, 0.0);
        get_elems(bytes, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.5);
        put_str(&mut buf, Prefix::U16, "span");
        put_str(&mut buf, Prefix::U32, "scheme/topk/round_ns");
        put_str(&mut buf, Prefix::U64, "détail");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.f64().unwrap(), -0.5);
        assert_eq!(c.str(Prefix::U16).unwrap(), "span");
        assert_eq!(c.str(Prefix::U32).unwrap(), "scheme/topk/round_ns");
        assert_eq!(c.str(Prefix::U64).unwrap(), "détail");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn truncation_and_oversized_prefixes_error() {
        let mut buf = Vec::new();
        put_str(&mut buf, Prefix::U32, "abc");
        assert!(Cursor::new(&buf[..buf.len() - 1]).str(Prefix::U32).is_err());
        for prefix in [Prefix::U32, Prefix::U64] {
            // A length prefix far past the buffer.
            let huge = [0xFFu8; 8];
            assert!(matches!(
                Cursor::new(&huge).str(prefix),
                Err(WireError::Truncated { .. })
            ));
            assert!(matches!(
                Cursor::new(&huge).count(prefix, 1),
                Err(WireError::CountExceedsPayload { .. })
            ));
        }
        assert_eq!(
            Cursor::new(&[1, 2, 3]).u64(),
            Err(WireError::Truncated {
                at: 0,
                wanted: 8,
                have: 3
            })
        );
        assert_eq!(
            Cursor::new(&[1, 0, 0xFF]).str(Prefix::U16),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn count_admits_what_fits_and_nothing_more() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Cursor::new(&buf).count(Prefix::U32, 12), Ok(2));
        assert_eq!(
            Cursor::new(&buf).count(Prefix::U32, 13),
            Err(WireError::CountExceedsPayload { count: 2 })
        );
    }

    #[test]
    fn nan_bits_survive() {
        let mut buf = Vec::new();
        put_f64(&mut buf, f64::NAN);
        assert!(Cursor::new(&buf).f64().unwrap().is_nan());
    }

    #[test]
    fn element_codec_is_exact_and_appends() {
        let vals = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::MAX, f32::NAN];
        let mut buf = vec![0xAA];
        put_elems(&mut buf, &vals);
        assert_eq!(buf.len(), 1 + 4 * vals.len());
        assert_eq!(buf[1..5], 0.0f32.to_le_bytes());
        let mut back = Vec::new();
        Cursor::new(&buf[1..])
            .f32s_into(vals.len(), &mut back)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vals));
        assert_eq!(
            Cursor::new(&buf[1..]).f32s_into(vals.len() - 1, &mut back),
            Err(WireError::Trailing { extra: 4 })
        );
        assert!(matches!(
            Cursor::new(&buf[1..]).f32s_into(vals.len() + 1, &mut back),
            Err(WireError::Truncated { .. })
        ));
    }
}
