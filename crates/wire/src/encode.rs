//! Encoder half of the wire codec.

/// Streaming encoder that appends wire-format bytes to an internal buffer.
///
/// The encoder never fails; all fallibility lives on the decoding side.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
    /// `Some` in a size pass ([`Encoder::counting`]): bytes counted, none kept.
    counted: Option<usize>,
}

impl Encoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Encoder::from_vec(Vec::new())
    }

    /// An encoder that counts what it is given and writes none of it: the
    /// size pass of [`Wire::encoded_len`](crate::Wire::encoded_len).
    pub fn counting() -> Self {
        let counted = Some(0);
        Encoder {
            counted,
            ..Self::new()
        }
    }

    /// Create an encoder with a pre-allocated capacity (useful for messages
    /// whose approximate size is known, e.g. bulk state transfers).
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder::from_vec(Vec::with_capacity(capacity))
    }

    /// Wrap an existing buffer, appending to whatever it already holds.
    ///
    /// Together with [`Encoder::into_bytes`] this lets hot paths recycle
    /// one scratch buffer across many messages (see `Wire::encode_into`)
    /// instead of allocating per message.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Encoder { buf, counted: None }
    }

    /// Number of bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append a single raw byte.
    pub fn put_u8(&mut self, value: u8) {
        self.put_raw(&[value]);
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(counted) => *counted += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Append an unsigned integer as a LEB128 varint.
    pub fn put_uvarint(&mut self, mut value: u64) {
        if let Some(counted) = &mut self.counted {
            *counted += (70 - (value | 1).leading_zeros() as usize) / 7;
            return;
        }
        while value >= 0x80 {
            self.buf.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.buf.push(value as u8);
    }

    /// Append a signed integer as a zig-zag encoded varint.
    pub fn put_ivarint(&mut self, value: i64) {
        let zigzag = ((value << 1) ^ (value >> 63)) as u64;
        self.put_uvarint(zigzag);
    }

    /// Append an `f64` as 8 little-endian bytes.
    pub fn put_f64(&mut self, value: f64) {
        self.put_raw(&value.to_le_bytes());
    }

    /// Append an `f32` as 4 little-endian bytes.
    pub fn put_f32(&mut self, value: f32) {
        self.put_raw(&value.to_le_bytes());
    }

    /// Append a boolean as a single byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_uvarint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }

    /// Append a sequence length prefix. The caller then encodes each element.
    pub fn put_len(&mut self, len: usize) {
        self.put_uvarint(len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        let mut enc = Encoder::new();
        enc.put_uvarint(0);
        enc.put_uvarint(127);
        enc.put_uvarint(128);
        enc.put_uvarint(16_383);
        enc.put_uvarint(16_384);
        assert_eq!(enc.as_slice().len(), 1 + 1 + 2 + 2 + 3);
    }

    #[test]
    fn a_varint_is_counted_as_written() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let (mut written, mut counted) = (Encoder::new(), Encoder::counting());
            written.put_uvarint(v);
            counted.put_uvarint(v);
            assert_eq!(counted.len(), written.len(), "value {v}");
        }
    }

    #[test]
    fn a_counting_encoder_counts_what_a_writing_one_writes() {
        let (mut written, mut counted) = (Encoder::new(), Encoder::counting());
        for enc in [&mut written, &mut counted] {
            enc.put_uvarint(300);
            enc.put_ivarint(-65);
            enc.put_str("state");
            enc.put_f64(0.5);
            enc.put_f32(0.25);
            enc.put_bool(true);
            enc.put_raw(&[1, 2]);
        }
        assert_eq!(counted.len(), written.len());
        assert!(counted.as_slice().is_empty() && !counted.is_empty());
    }

    #[test]
    fn with_capacity_and_raw() {
        let mut enc = Encoder::with_capacity(16);
        assert!(enc.is_empty());
        enc.put_raw(&[1, 2, 3]);
        enc.put_u8(4);
        assert_eq!(enc.into_bytes(), vec![1, 2, 3, 4]);
    }
}
