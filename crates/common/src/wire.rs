//! Deterministic wire encoding.
//!
//! Protocol messages in TransEdge are hashed and signed, so the byte
//! representation of every signable structure must be canonical: the
//! same value always encodes to the same bytes on every node. `serde`
//! alone does not provide a byte format and no serialisation-format
//! crate is available offline, so the workspace uses this small,
//! explicit little-endian / length-prefixed encoding instead.
//!
//! The format:
//! * fixed-width integers: little-endian;
//! * byte strings and sequences: `u32` length prefix followed by the
//!   items;
//! * enums: a leading `u8` tag chosen by each type's impl.
//!
//! Decoding is used by tests and by byzantine-behaviour harnesses that
//! deliberately corrupt messages; the happy path of the simulator passes
//! typed messages around and only encodes when a digest or signature is
//! required.

use crate::error::{Result, TransEdgeError};

/// Serialise `self` into a canonical byte stream.
pub trait Encode {
    fn encode(&self, w: &mut WireWriter);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Deserialise from a canonical byte stream produced by [`Encode`].
pub trait Decode: Sized {
    fn decode(r: &mut WireReader<'_>) -> Result<Self>;

    /// Convenience: decode a complete buffer, requiring full consumption.
    fn decode_all(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(TransEdgeError::Decode(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

/// Append-only byte sink for [`Encode`] impls.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Raw bytes, no length prefix. Only for fixed-size fields (digests,
    /// signatures) whose length is implied by the schema.
    pub fn put_fixed(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed sequence of encodable items.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empty the buffer, keeping its capacity: a writer reused across
    /// encodes allocates only until it has grown to the largest.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor over a byte stream for [`Decode`] impls.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(TransEdgeError::Decode(format!(
                "wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Fixed-size field (length implied by schema).
    pub fn get_fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// Length-prefixed sequence of decodable items.
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>> {
        let len = self.get_u32()? as usize;
        // Guard against hostile length prefixes: cap the pre-allocation.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

// Blanket impls for common shapes.

impl Encode for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u32()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_bytes()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(self);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(TransEdgeError::Decode(format!("bad Option tag {t}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Test helper: assert that a value round-trips through the wire format.
pub fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.encode_to_vec();
    let back = T::decode_all(&bytes).expect("decode");
    assert_eq!(&back, value, "wire roundtrip mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&7u32);
        roundtrip(&vec![1u8, 2, 3]);
        roundtrip(&Vec::<u8>::new());
        roundtrip(&Some(5u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&(3u32, vec![9u8]));
    }

    #[test]
    fn little_endian_layout_is_stable() {
        let mut w = WireWriter::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut w = WireWriter::new();
        w.put_bytes(b"ab");
        assert_eq!(w.as_slice(), &[2, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn decode_all_rejects_trailing_garbage() {
        let mut bytes = 5u64.encode_to_vec();
        bytes.push(0xFF);
        assert!(u64::decode_all(&bytes).is_err());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = 5u64.encode_to_vec();
        assert!(u64::decode_all(&bytes[..4]).is_err());
        assert!(Vec::<u8>::decode_all(&[10, 0, 0, 0, 1, 2]).is_err());
    }

    #[test]
    fn hostile_length_prefix_does_not_oom() {
        // Sequence claiming u32::MAX entries but providing none.
        let bytes = u32::MAX.encode_to_vec();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_seq::<u64>().is_err());
    }
}
