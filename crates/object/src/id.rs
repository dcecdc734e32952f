//! Object identifiers and descriptors.

use orca_wire::{wire_type, Decoder, Encoder, Wire, WireResult};

/// Identifier of a shared data-object, unique within one running application.
///
/// Object ids are assigned by the creating node's runtime system; the node id
/// is folded into the upper bits so that objects created concurrently on
/// different nodes never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Compose an object id from the creating node and a per-node counter.
    pub fn compose(node_index: u16, counter: u64) -> ObjectId {
        ObjectId((u64::from(node_index) << 48) | (counter & 0xffff_ffff_ffff))
    }

    /// Index of the node that created the object.
    pub fn creator_index(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// Per-creator counter part of the id.
    pub fn counter(self) -> u64 {
        self.0 & 0xffff_ffff_ffff
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}/{}", self.creator_index(), self.counter())
    }
}

impl Wire for ObjectId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(ObjectId(u64::decode(dec)?))
    }
}

wire_type! {
    /// Everything a node needs to instantiate a replica of an object it has never
    /// seen: the id, the registered type name, and the encoded initial state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ObjectDescriptor {
        /// Identifier of the object.
        pub id: ObjectId,
        /// Registered [`crate::ObjectType::TYPE_NAME`].
        pub type_name: String,
        /// Encoded state at creation (or transfer) time.
        pub state: Vec<u8>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_and_split() {
        let id = ObjectId::compose(7, 123);
        assert_eq!(id.creator_index(), 7);
        assert_eq!(id.counter(), 123);
        assert_eq!(id.to_string(), "obj7/123");
    }

    #[test]
    fn ids_from_different_creators_do_not_collide() {
        assert_ne!(ObjectId::compose(0, 1), ObjectId::compose(1, 1));
        assert_ne!(ObjectId::compose(0, 1), ObjectId::compose(0, 2));
    }

    #[test]
    fn wire_round_trip() {
        let id = ObjectId::compose(3, 99);
        assert_eq!(ObjectId::from_bytes(&id.to_bytes()).unwrap(), id);
        let desc = ObjectDescriptor {
            id,
            type_name: "IntObject".into(),
            state: vec![1, 2, 3],
        };
        assert_eq!(
            ObjectDescriptor::from_bytes(&desc.to_bytes()).unwrap(),
            desc
        );
    }
}
