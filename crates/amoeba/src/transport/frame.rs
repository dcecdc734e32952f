//! Wire frame carried by the socket transport.
//!
//! Every TCP message and UDP datagram is one frame: a fixed 18-byte header
//! (magic, version, delivery class, source node, destination node, port)
//! followed by the opaque payload. The header carries exactly the fields of
//! [`NetMessage`], so the `orca-wire` codecs of every layer above ride
//! unchanged — the socket backend reconstructs the same `NetMessage` the
//! simulator would have delivered.
//!
//! On TCP the frame is preceded by a big-endian `u32` length prefix (the
//! frame's total byte count); on UDP one datagram is one frame.

use crate::message::{Delivery, NetMessage};
use crate::node::{NodeId, Port};

/// `"ORCA"` in big-endian bytes.
pub const FRAME_MAGIC: u32 = 0x4F52_4341;

/// Current frame format version. Bumped whenever a payload codec changes
/// incompatibly, so that a mixed-version cluster refuses the other
/// version's frames ([`FrameError::BadVersion`]) instead of mis-decoding
/// them: since version 12 a `Holdings` report names the mirrors of a copy
/// as it names a partition's, by what they mirror and `(epoch, version)`,
/// with no state, and each slot with the readers it lists, and `Promote`
/// names what it promotes as `Mirror` does
/// (version 11 made a re-placement re-stamp a partition whose owner stays —
/// an `Install` naming the epoch it comes `from` — and a broadcast write
/// carry its operation as its tail; version 10 said by how much a batched operation's trace is
/// further on under its predecessor's origin — a skip bit in its flags —
/// and made a batch reply runs of equal outcomes; version 9 gave
/// a sharded partition read mirrors — `FetchMirror`, `Unlock` and
/// `DropCopies` name the partition as `Mirror` and `Update` do, and
/// `WriteThrough` carries one before its operation, as `Op` does; version 8 made a sharded partition's second copy a mirror —
/// `Mirror` and `Update` name the partition they mirror as a last field a
/// whole object's do not have, `Promote` replaces the three backup messages
/// and `Holdings` lists kept partitions; version 7 made a byte string a
/// length and its bytes wherever it is written — pushed operations,
/// job-queue states — `Update` say whether its mirror is held and carry the
/// lease `Unlock` lost, a lease riding a message its span alone, and added
/// `Unreached`; version 6 put a `primary` node on `RegimeMsg` and
/// `ports::RTS_ADAPTIVE` where it spoke a vocabulary of its own — and a
/// recovery coordinator's — on three ports, made `Update` carry a run of
/// operations and `DropCopies` the version of an invalidating write;
/// version 5 made a `RegimeTable` name the mirrors of a replicated object,
/// `Install` the slot's regime and mirrors, `Holdings` a regime per slot
/// and `FetchMirror` the version its sender holds; version 4 put a
/// `sharded` node on
/// `RegimeMsg` and `ports::RTS_ADAPTIVE` — partition backups and the
/// holdings report included — where it spoke a vocabulary of its own on two
/// ports, version 3 brought the RPC envelope of `orca_wire::envelope` and
/// the single-operation messages whose operation is their tail, version 2
/// the delta-coded operation batches and two-varint trace ids).
pub const FRAME_VERSION: u8 = 12;

/// Fixed header size: magic (4) + version (1) + delivery (1) + src (2) +
/// dst (2) + port (8).
pub const FRAME_HEADER_BYTES: usize = 18;

/// A decoded socket frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination node (the receiver checks it got the right frame).
    pub dst: NodeId,
    /// Destination port.
    pub port: Port,
    /// Delivery class reported to the receiver.
    pub delivery: Delivery,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Frame decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_HEADER_BYTES`] bytes.
    Truncated,
    /// Magic number mismatch (not an Orca frame).
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown delivery class tag.
    BadDelivery(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadDelivery(d) => write!(f, "unknown delivery tag {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Total encoded size (header + payload).
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload.len()
    }

    /// Encode the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoded frame to `buf` (after a stream's length prefix,
    /// say), copying the payload once.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        buf.push(FRAME_VERSION);
        buf.push(match self.delivery {
            Delivery::PointToPoint => 0,
            Delivery::Broadcast => 1,
        });
        buf.extend_from_slice(&self.src.0.to_be_bytes());
        buf.extend_from_slice(&self.dst.0.to_be_bytes());
        buf.extend_from_slice(&self.port.to_be_bytes());
        buf.extend_from_slice(&self.payload);
    }

    /// Decode a frame from a full buffer (one TCP message body or one UDP
    /// datagram).
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let Some((header, payload)) = bytes.split_first_chunk() else {
            return Err(FrameError::Truncated);
        };
        Frame::from_parts(header, payload.to_vec())
    }

    /// Build a frame from its header bytes and an already-owned payload:
    /// the stream reader reads the payload straight into the buffer it
    /// hands over here, so the bytes are never copied again.
    pub fn from_parts(
        bytes: &[u8; FRAME_HEADER_BYTES],
        payload: Vec<u8>,
    ) -> Result<Frame, FrameError> {
        let magic = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = bytes[4];
        if version != FRAME_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let delivery = match bytes[5] {
            0 => Delivery::PointToPoint,
            1 => Delivery::Broadcast,
            tag => return Err(FrameError::BadDelivery(tag)),
        };
        let src = NodeId(u16::from_be_bytes([bytes[6], bytes[7]]));
        let dst = NodeId(u16::from_be_bytes([bytes[8], bytes[9]]));
        let port = Port::from_be_bytes([
            bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17],
        ]);
        Ok(Frame {
            src,
            dst,
            port,
            delivery,
            payload,
        })
    }

    /// The [`NetMessage`] this frame delivers (drops the routing `dst`).
    pub fn into_message(self) -> NetMessage {
        NetMessage {
            src: self.src,
            port: self.port,
            delivery: self.delivery,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let frame = Frame {
            src: NodeId(3),
            dst: NodeId(1),
            port: (1 << 32) + 77,
            delivery: Delivery::Broadcast,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.encoded_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn empty_payload_round_trip() {
        let frame = Frame {
            src: NodeId(0),
            dst: NodeId(0),
            port: 1,
            delivery: Delivery::PointToPoint,
            payload: vec![],
        };
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Frame::decode(&[1, 2, 3]), Err(FrameError::Truncated));
        let mut bytes = Frame {
            src: NodeId(0),
            dst: NodeId(1),
            port: 5,
            delivery: Delivery::PointToPoint,
            payload: vec![],
        }
        .encode();
        bytes[0] = 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
        bytes[0] = 0x4F;
        bytes[4] = 99;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadVersion(99)));
        bytes[4] = FRAME_VERSION;
        bytes[5] = 7;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadDelivery(7)));
    }

    #[test]
    fn owned_payload_is_moved_not_copied() {
        let frame = Frame {
            src: NodeId(2),
            dst: NodeId(0),
            port: 9,
            delivery: Delivery::PointToPoint,
            payload: vec![6; 40],
        };
        let bytes = frame.encode();
        let (header, payload) = bytes.split_first_chunk().unwrap();
        let payload = payload.to_vec();
        let at = payload.as_ptr();
        let decoded = Frame::from_parts(header, payload).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.payload.as_ptr(), at);
    }
}
