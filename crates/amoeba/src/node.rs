//! Node and port identifiers for the simulated multicomputer.

use std::fmt;

use orca_wire::{Decoder, Encoder, Wire, WireResult};

/// Identifier of one processor (CPU + private memory) in the processor pool.
///
/// The paper's hardware is a pool of MC68030 boards on an Ethernet; here a
/// node is simply an index into the simulated [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Convenience accessor returning the id as a `usize` index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(value: u16) -> Self {
        NodeId(value)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(u16::try_from(value).expect("node index fits in u16"))
    }
}

impl Wire for NodeId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(NodeId(u16::decode(dec)?))
    }
}

/// A demultiplexing port on a node.
///
/// Amoeba uses ports/capabilities to address services; the simulation keeps a
/// flat 64-bit port space per node. Well-known ports live in [`ports`];
/// ephemeral ports (e.g. RPC reply ports) are allocated from the upper half of
/// the space.
pub type Port = u64;

/// Well-known ports used by the layers above the raw network.
pub mod ports {
    use super::Port;

    /// Group-communication (totally-ordered broadcast) protocol traffic.
    pub const GROUP: Port = 1;
    /// Membership / election control traffic.
    pub const MEMBERSHIP: Port = 4;
    /// RPC service port of the point-to-point runtime system — the adaptive
    /// one, its regime pinned (`primary`, `sharded`) or not: regime routing,
    /// operations, regime-switch drain/install, mirror updates and
    /// invalidations, and re-homing after a crash (holdings survey,
    /// promotion of a partition's mirror).
    pub const RTS_ADAPTIVE: Port = 6;
    /// First port usable by applications and tests.
    pub const USER_BASE: Port = 1000;
    /// First ephemeral port (allocated dynamically, e.g. for RPC replies).
    pub const EPHEMERAL_BASE: Port = 1 << 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let node = NodeId(3);
        assert_eq!(node.to_string(), "node3");
        assert_eq!(node.index(), 3);
        assert_eq!(NodeId::from(5usize), NodeId(5));
    }

    #[test]
    fn node_id_wire_round_trip() {
        let node = NodeId(65535);
        assert_eq!(NodeId::from_bytes(&node.to_bytes()).unwrap(), node);
    }

    #[test]
    fn port_constants_are_distinct() {
        let ports = [ports::GROUP, ports::MEMBERSHIP, ports::RTS_ADAPTIVE];
        for (i, a) in ports.iter().enumerate() {
            for b in &ports[i + 1..] {
                assert_ne!(a, b);
            }
        }
        const { assert!(ports::EPHEMERAL_BASE > ports::USER_BASE) };
    }
}
