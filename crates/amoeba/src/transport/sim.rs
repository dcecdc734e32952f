//! The default transport backend: a per-node view onto the deterministic
//! in-process simulated network.
//!
//! The view pins its node's [`Endpoint`], which counts and delivers on both
//! backends alike. Its move of a message is the simulator's: the model
//! checker's scheduler hold, one fault-injector draw per copy, holdback and
//! the crashed destination's drop, all in [`crate::network::Network`]'s
//! core, which draws for the copies in the order the seam moves them — so
//! a seeded run is bit-for-bit reproducible.

use std::sync::Arc;

use crate::message::NetMessage;
use crate::network::NetworkCore;
use crate::node::NodeId;
use crate::transport::{Endpoint, Transport, TransportKind};

/// One node's endpoint of the simulated network.
pub struct SimTransport {
    core: Arc<NetworkCore>,
    node: NodeId,
}

impl SimTransport {
    pub(crate) fn new(core: Arc<NetworkCore>, node: NodeId) -> Self {
        SimTransport { core, node }
    }
}

impl Transport for SimTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.core.is_crashed(node)
    }

    fn endpoint(&self) -> &Endpoint {
        self.core.endpoint(self.node)
    }

    fn transmit(&self, dst: NodeId, msg: NetMessage, reliable: bool) {
        self.core.transmit(dst, msg, reliable);
    }
}
