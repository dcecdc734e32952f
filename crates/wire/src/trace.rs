//! Causal trace identities carried by the wire vocabulary.
//!
//! A [`TraceId`] names one application-level invocation. It is minted at
//! the `invoke`/`invoke_async` entry point of the runtime layer and rides
//! every message the invocation causes — the RPC envelope, batched
//! operations, regime/shard operations, recovery coordination — so the
//! telemetry layer can stitch the per-node flight-recorder events of one
//! operation back into a single causal span tree: origin → sequencer /
//! primary / owner → secondaries / mirrors.
//!
//! In memory the id is a single `u64`: the high 16 bits hold
//! `origin node + 1`, the low 48 bits a per-origin counter. Zero is
//! reserved for *untraced* traffic (background protocol work such as
//! heartbeats).
//!
//! On the wire the two halves travel as two varints — `origin + 1`, then
//! the counter — so a traced message pays for the digits its origin and
//! counter actually have (3–5 bytes in practice) instead of the 8 bytes a
//! varint of the packed `u64` always costs. [`TraceId::NONE`] is the single
//! byte `0`.

use crate::{Decoder, Encoder, Wire, WireError, WireResult};

/// Bits of the packed id that hold the per-origin counter.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Wire value of the first varint for an id whose high half is zero but
/// whose counter is not. [`TraceId::mint`] never produces one (only the
/// out-of-range origin `u16::MAX` wraps there), but the field is a public
/// `u64`, so the codec keeps every value lossless.
const BARE_SEQ: u64 = 1 << 16;

/// Compact causal identity of one invocation (0 = untraced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced identity carried by background protocol traffic.
    pub const NONE: TraceId = TraceId(0);

    /// Build the id of invocation `seq` minted at `origin`.
    ///
    /// `origin + 1` occupies the high 16 bits so ids from different nodes
    /// can never collide and node 0's ids are still distinguishable from
    /// [`TraceId::NONE`].
    pub fn mint(origin: u16, seq: u64) -> TraceId {
        TraceId((u64::from(origin) + 1) << SEQ_BITS | (seq & SEQ_MASK))
    }

    /// True when this id names a real invocation.
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }

    /// The node that minted this id (`None` for [`TraceId::NONE`]).
    pub fn origin(self) -> Option<u16> {
        if self.0 == 0 {
            None
        } else {
            Some(((self.0 >> SEQ_BITS).wrapping_sub(1)) as u16)
        }
    }

    /// The per-origin invocation counter.
    pub fn seq(self) -> u64 {
        self.0 & SEQ_MASK
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.origin() {
            None => write!(f, "-"),
            Some(origin) => write!(f, "t{}.{}", origin, self.seq()),
        }
    }
}

impl Wire for TraceId {
    fn encode(&self, enc: &mut Encoder) {
        if self.0 == 0 {
            return enc.put_u8(0);
        }
        match self.0 >> SEQ_BITS {
            0 => enc.put_uvarint(BARE_SEQ),
            high => enc.put_uvarint(high),
        }
        enc.put_uvarint(self.seq());
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let high = match dec.get_uvarint()? {
            0 => return Ok(TraceId::NONE),
            BARE_SEQ => 0,
            high if high < BARE_SEQ => high,
            tag => {
                return Err(WireError::InvalidTag {
                    type_name: "TraceId",
                    tag,
                })
            }
        };
        let seq = dec.get_uvarint()?;
        // A zero `BARE_SEQ` id would alias `NONE`'s one-byte form.
        if seq > SEQ_MASK || (high == 0 && seq == 0) {
            return Err(WireError::InvalidTag {
                type_name: "TraceId",
                tag: seq,
            });
        }
        Ok(TraceId(high << SEQ_BITS | seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_and_unpack() {
        let id = TraceId::mint(3, 41);
        assert!(id.is_traced());
        assert_eq!(id.origin(), Some(3));
        assert_eq!(id.seq(), 41);
        assert_eq!(id.to_string(), "t3.41");
        assert_eq!(TraceId::NONE.origin(), None);
        assert_eq!(TraceId::NONE.to_string(), "-");
        assert!(!TraceId::NONE.is_traced());
        // Node 0's first id is distinct from NONE.
        assert!(TraceId::mint(0, 0).is_traced());
    }

    #[test]
    fn round_trips_and_stays_compact() {
        for id in [
            TraceId::NONE,
            TraceId::mint(0, 0),
            TraceId::mint(u16::MAX - 1, SEQ_MASK),
            // Never minted, still lossless: a bare counter, every bit set.
            TraceId::mint(u16::MAX, SEQ_MASK),
            TraceId(1),
            TraceId(u64::MAX),
        ] {
            assert_eq!(TraceId::from_bytes(&id.to_bytes()).unwrap(), id);
        }
        // Untraced costs one byte on the wire; a traced id pays for its
        // digits, not for its position in the packed word.
        assert_eq!(TraceId::NONE.encoded_len(), 1);
        assert_eq!(TraceId::mint(0, 0).encoded_len(), 2);
        assert_eq!(TraceId::mint(2, 16_383).encoded_len(), 3);
        assert_eq!(TraceId::mint(2, 2_000_000).encoded_len(), 4);
        assert_eq!(TraceId::mint(u16::MAX - 1, SEQ_MASK).encoded_len(), 10);
    }

    #[test]
    fn rejects_encodings_outside_the_format() {
        // High half beyond 16 bits, counter beyond 48, and the two-byte
        // spelling of NONE.
        for bytes in [
            {
                let mut enc = Encoder::new();
                enc.put_uvarint(BARE_SEQ + 1);
                enc.put_uvarint(1);
                enc.into_bytes()
            },
            {
                let mut enc = Encoder::new();
                enc.put_uvarint(1);
                enc.put_uvarint(SEQ_MASK + 1);
                enc.into_bytes()
            },
            {
                let mut enc = Encoder::new();
                enc.put_uvarint(BARE_SEQ);
                enc.put_uvarint(0);
                enc.into_bytes()
            },
        ] {
            assert!(TraceId::from_bytes(&bytes).is_err(), "{bytes:?}");
        }
        // A traced id cut after its first varint is an error.
        assert!(TraceId::from_bytes(&[3]).is_err());
    }
}
