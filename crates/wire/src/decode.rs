//! Decoder half of the wire codec.

use crate::error::{WireError, WireResult};

/// Maximum length accepted for any length prefix (bytes, strings, sequences).
///
/// The simulated network never carries anything near this size; the limit
/// exists so that a corrupted length prefix fails fast instead of attempting
/// an enormous allocation.
pub const MAX_LEN: u64 = 1 << 30;

/// Cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Create a decoder over `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position (bytes consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Succeeds only if every byte has been consumed.
    pub fn finish(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a single raw byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// Read a LEB128 varint into a `u64`.
    pub fn get_uvarint(&mut self) -> WireResult<u64> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Read a zig-zag encoded varint into an `i64`.
    pub fn get_ivarint(&mut self) -> WireResult<i64> {
        let zigzag = self.get_uvarint()?;
        Ok(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64))
    }

    /// Read an `f64` from 8 little-endian bytes.
    pub fn get_f64(&mut self) -> WireResult<f64> {
        let bytes = self.take(8)?;
        Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read an `f32` from 4 little-endian bytes.
    pub fn get_f32(&mut self) -> WireResult<f32> {
        let bytes = self.take(4)?;
        Ok(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a boolean byte, accepting only 0 or 1.
    pub fn get_bool(&mut self) -> WireResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                type_name: "bool",
                tag: u64::from(tag),
            }),
        }
    }

    /// Read a length prefix, enforcing [`MAX_LEN`].
    pub fn get_len(&mut self) -> WireResult<usize> {
        let len = self.get_uvarint()?;
        if len > MAX_LEN {
            return Err(WireError::LengthTooLarge { len, max: MAX_LEN });
        }
        Ok(len as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> WireResult<Vec<u8>> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Read a length-prefixed byte string without copying it: the slice
    /// borrows the decoder's input, so a receiver can hand it on (to a
    /// replica's `apply_encoded`, say) straight from the receive buffer.
    pub fn get_bytes_ref(&mut self) -> WireResult<&'a [u8]> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Take everything not yet consumed, without copying it. A message
    /// whose last field is a byte string carries it this way — as its
    /// *tail*, with no length prefix: the enclosing payload's end is the
    /// field's end. An empty tail is legal.
    pub fn get_rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> WireResult<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;

    #[test]
    fn zigzag_round_trip() {
        let mut enc = Encoder::new();
        let values = [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX];
        for v in values {
            enc.put_ivarint(v);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for v in values {
            assert_eq!(dec.get_ivarint().unwrap(), v);
        }
        dec.finish().unwrap();
    }

    #[test]
    fn eof_detection() {
        let mut dec = Decoder::new(&[0x80]);
        assert!(matches!(
            dec.get_uvarint(),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes can never fit a u64.
        let bytes = [0xffu8; 11];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_uvarint(), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn bool_rejects_other_tags() {
        let mut dec = Decoder::new(&[7]);
        assert!(matches!(dec.get_bool(), Err(WireError::InvalidTag { .. })));
    }

    #[test]
    fn borrowed_bytes_alias_the_input() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[7, 8, 9]);
        enc.put_u8(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let slice = dec.get_bytes_ref().unwrap();
        assert_eq!(slice, &[7, 8, 9]);
        assert!(std::ptr::eq(slice.as_ptr(), bytes[1..].as_ptr()));
        assert_eq!(dec.remaining(), 1);
        // A length that overruns the input is an error, not a short slice.
        assert!(Decoder::new(&[5, 1, 2]).get_bytes_ref().is_err());
    }

    #[test]
    fn rest_takes_the_tail_and_leaves_nothing() {
        let mut dec = Decoder::new(&[3, 7, 8, 9]);
        assert_eq!(dec.get_u8().unwrap(), 3);
        let tail = dec.get_rest();
        assert_eq!(tail, &[7, 8, 9]);
        dec.finish().unwrap();
        assert!(dec.get_rest().is_empty());
    }

    #[test]
    fn string_round_trip_and_position() {
        let mut enc = Encoder::new();
        enc.put_str("hé🙂");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str().unwrap(), "hé🙂");
        assert_eq!(dec.position(), bytes.len());
    }
}
