//! Compact binary wire codec of the Orca stack.
//!
//! Every message a node sends — over the simulated network or over real
//! sockets — and every shipped operation and object state is encoded with
//! this codec, so the byte counts the network statistics accumulate (and
//! the benchmark ledger reports per operation) are those of a real
//! serialized representation rather than of in-memory object graphs.
//!
//! The format is deliberately simple:
//!
//! * unsigned integers are LEB128 varints,
//! * signed integers are zig-zag encoded varints,
//! * floats are little-endian IEEE-754,
//! * byte strings and UTF-8 strings are length-prefixed,
//! * sequences and maps are length-prefixed element lists,
//! * `Option<T>` is a one-byte tag followed by the payload,
//! * an enum is a tag byte followed by its variant's fields.
//!
//! The last field of a message may instead be its *tail* — a byte string
//! without a length, running to the end of the payload
//! ([`Decoder::get_rest`]) — or a *trailing option*, written only when it is
//! `Some`. The [`Wire`] trait plays the role serde would normally play; it
//! is kept dependency-free so the whole workspace only needs the crates
//! allowed for this reproduction. A message type is declared once, its
//! fields in wire order, with [`wire_type!`], which writes its codec.
//!
//! # Example
//!
//! ```
//! use orca_wire::Wire;
//!
//! orca_wire::wire_type! {
//!     /// A branch-and-bound job.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Job {
//!         pub id: u64,
//!         pub route: Vec<u16>,
//!         pub bound: i64,
//!     }
//! }
//!
//! let job = Job { id: 7, route: vec![1, 2, 3], bound: -42 };
//! let bytes = job.to_bytes();
//! assert_eq!(bytes, [7, 3, 1, 2, 3, 83]);
//! assert_eq!(Job::from_bytes(&bytes).unwrap(), job);
//! ```

#![warn(missing_docs)]

pub mod batch;
#[doc(hidden)]
pub mod declare;
mod decode;
mod encode;
pub mod envelope;
mod error;
mod impls;
pub mod lease;
pub mod recovery;
pub mod regime;
pub mod trace;

pub use batch::{
    BatchOp, BatchOutcome, BatchOutcomes, OpBatch, OpBatchEncoder, OpBatchView, OpRef,
};
pub use decode::{Decoder, MAX_LEN};
pub use encode::Encoder;
pub use envelope::RequestHead;
pub use error::{WireError, WireResult};
pub use lease::{DedupWindow, LeaseGrant, OpStamp, DEDUP_WINDOW_PER_ORIGIN};
pub use recovery::RecoveryMsg;
pub use regime::{Holdings, RegimeKind, RegimeMsg, RegimeReply, RegimeTable};
pub use trace::TraceId;

/// A type that can be serialized to and deserialized from the wire format.
///
/// All messages the nodes exchange, all shipped operations, and all
/// replicated object states implement this trait.
pub trait Wire: Sized {
    /// Append the encoding of `self` to the encoder.
    fn encode(&self, enc: &mut Encoder);

    /// Decode a value of this type from the decoder, advancing its cursor.
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self>;

    /// Encode `self` into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        // Room for a remote `Put`'s request: one allocation, not four.
        let mut enc = Encoder::with_capacity(64);
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Append the encoding of `self` to `buf`, reusing its capacity.
    ///
    /// This is the allocation-free seam of the hot send paths: a caller
    /// that fans one message out to many destinations (or encodes a stream
    /// of batches) clears and re-fills one scratch buffer instead of
    /// allocating a fresh `Vec` per message.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut enc = Encoder::from_vec(std::mem::take(buf));
        self.encode(&mut enc);
        *buf = enc.into_bytes();
    }

    /// Decode a value from a byte slice, requiring that the whole slice is
    /// consumed.
    fn from_bytes(bytes: &[u8]) -> WireResult<Self> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }

    /// Number of bytes the encoding of `self` occupies, counted by a size
    /// pass ([`Encoder::counting`]) that writes none of them.
    fn encoded_len(&self) -> usize {
        let mut enc = Encoder::counting();
        self.encode(&mut enc);
        enc.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_scalars() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(i64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        for v in [f64::MIN, -0.0, 0.5, 1e300] {
            assert_eq!(f64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        assert!(bool::from_bytes(&true.to_bytes()).unwrap());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn encoded_len_matches_to_bytes() {
        let v = vec![String::from("hello"), String::from("world")];
        assert_eq!(v.encoded_len(), v.to_bytes().len());
    }
}
