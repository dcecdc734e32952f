//! Message envelope delivered by the simulated network.

use orca_wire::{wire_type, Wire};

use crate::node::{NodeId, Port};

wire_type! {
    /// How a message reached the destination node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Delivery {
        /// Point-to-point send addressed to exactly this node.
        POINT_TO_POINT_TAG = 0 => PointToPoint,
        /// Hardware-style broadcast copied to every node on the network.
        BROADCAST_TAG = 1 => Broadcast,
    }
}

/// A message delivered to a node's inbox.
///
/// The payload is opaque to the network; higher layers (group communication,
/// RPC, runtime systems) define their own wire formats on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMessage {
    /// Node that sent the message.
    pub src: NodeId,
    /// Destination port the sender addressed.
    pub port: Port,
    /// How the message was transmitted.
    pub delivery: Delivery,
    /// Serialized payload bytes.
    pub payload: Vec<u8>,
}

impl NetMessage {
    /// Decode the payload as a wire type, mapping failures to a wire error.
    pub fn decode_payload<T: Wire>(&self) -> orca_wire::WireResult<T> {
        T::from_bytes(&self.payload)
    }

    /// Total size of the message on the (simulated) wire, including a small
    /// fixed header comparable to an Ethernet + FLIP header.
    pub fn wire_size(&self) -> usize {
        WIRE_HEADER_BYTES + self.payload.len()
    }
}

/// Fixed per-message header overhead charged by the statistics layer
/// (Ethernet header + Amoeba FLIP-style header, rounded).
pub const WIRE_HEADER_BYTES: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let msg = NetMessage {
            src: NodeId(0),
            port: 9,
            delivery: Delivery::PointToPoint,
            payload: vec![0; 100],
        };
        assert_eq!(msg.wire_size(), 100 + WIRE_HEADER_BYTES);
    }

    #[test]
    fn payload_decoding() {
        let msg = NetMessage {
            src: NodeId(1),
            port: 9,
            delivery: Delivery::Broadcast,
            payload: 12345u64.to_bytes(),
        };
        assert_eq!(msg.decode_payload::<u64>().unwrap(), 12345);
        assert!(msg.decode_payload::<String>().is_err());
    }

    #[test]
    fn delivery_round_trip() {
        for d in [Delivery::PointToPoint, Delivery::Broadcast] {
            assert_eq!(Delivery::from_bytes(&d.to_bytes()).unwrap(), d);
        }
    }
}
