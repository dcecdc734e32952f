//! The transport seam: everything above the packet layer is generic over
//! [`Transport`].
//!
//! The paper's Amoeba/FLIP layer offers three primitives — reliable
//! point-to-point (RPC transport), unreliable datagrams, and hardware-style
//! broadcast — plus per-node port demultiplexing. [`Transport`] captures
//! exactly that surface, so the RPC layer, the group-communication
//! protocols, and the four runtime systems run unchanged over either
//! backend:
//!
//! * [`SimTransport`] — the default: the deterministic in-process simulated
//!   network ([`crate::network::Network`]), with fault injection and the
//!   model-checking schedule driver. One `Network` is shared by all nodes;
//!   each node's transport is a view onto it.
//! * [`SocketTransport`] — real sockets: length-prefixed framed TCP with
//!   per-peer connection reuse for reliable traffic, UDP datagrams for
//!   unreliable sends and broadcast fan-out. One transport per OS process;
//!   N processes with a shared static peer list form a live cluster.
//!
//! The seam deliberately does *not* cover crash **injection** (`crash` /
//! `recover` / the scheduler hooks): those are simulation-only controls and
//! stay on [`crate::network::Network`]. What the seam does carry is the
//! fail-stop *confirmation oracle* [`Transport::is_crashed`], which the
//! group layer consults before deposing a sequencer — perfect knowledge in
//! the simulator, failure-detector verdicts on sockets.

mod frame;
mod sim;
mod socket;

pub use frame::{Frame, FrameError, FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_VERSION};
pub use sim::SimTransport;
pub use socket::{BoundSocket, SocketConfig, SocketTransport, MAX_UDP_PAYLOAD};

use std::sync::Arc;

use orca_telemetry::Telemetry;

use crate::message::NetMessage;
use crate::network::{NetError, PortReceiver};
use crate::node::{NodeId, Port};
use crate::stats::NetStatsSnapshot;

/// Which backend a transport (or a handle wrapping one) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Deterministic in-process simulated network.
    Sim,
    /// Real TCP/UDP sockets.
    Socket,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Sim => write!(f, "sim"),
            TransportKind::Socket => write!(f, "socket"),
        }
    }
}

/// One node's endpoint of the communication substrate.
///
/// Implementations must mirror the simulated network's send semantics:
/// sends are fire-and-forget, never block on the destination, and a send
/// whose destination is unreachable (crashed, unreachable peer) is silently
/// dropped — `Ok(())` means "accepted for transmission", not "delivered".
/// Higher layers own end-to-end recovery (RPC timeouts, sequencer
/// retransmission), exactly as they do over Amoeba's FLIP.
pub trait Transport: Send + Sync {
    /// The node this transport endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Total number of nodes in the cluster / processor pool.
    fn num_nodes(&self) -> usize;

    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// The observability hub (metrics registry, flight recorder, traces).
    fn telemetry(&self) -> &Arc<Telemetry>;

    /// Snapshot of the statistics counters. The simulator shares one table
    /// across all nodes; a socket transport fills in its own node's row.
    fn stats(&self) -> NetStatsSnapshot;

    /// Allocate a fresh ephemeral port (unique at least per node; reply
    /// traffic is always addressed to a specific node, so per-node
    /// uniqueness suffices).
    fn alloc_ephemeral_port(&self) -> Port;

    /// Bind `port` on this node. Messages that arrived before the bind are
    /// delivered immediately, in arrival order.
    fn bind(&self, port: Port) -> PortReceiver;

    /// Reliable point-to-point send (Amoeba RPC transport).
    fn send_reliable(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError>;

    /// Unreliable point-to-point datagram.
    fn send(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError>;

    /// Unreliable broadcast to every node, including the sender.
    fn broadcast(&self, port: Port, payload: Vec<u8>) -> Result<(), NetError>;

    /// Fail-stop confirmation oracle: true if `node` is *confirmed* dead.
    /// `false` means "not confirmed", never "definitely alive".
    fn is_crashed(&self, node: NodeId) -> bool;
}

/// The port-demultiplexing table of one node, on either transport — a
/// simulated node's inbox and a socket endpoint alike: bound ports deliver
/// into a channel, traffic for unbound ports is buffered until the bind (so
/// higher layers need not orchestrate start-up order).
pub(crate) struct PortDemux {
    bound:
        parking_lot::Mutex<std::collections::HashMap<Port, crossbeam::channel::Sender<NetMessage>>>,
    pending: parking_lot::Mutex<std::collections::HashMap<Port, Vec<NetMessage>>>,
}

impl PortDemux {
    pub(crate) fn new() -> Self {
        PortDemux {
            bound: parking_lot::Mutex::new(std::collections::HashMap::new()),
            pending: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Route a message to its port's channel, or buffer it when unbound.
    pub(crate) fn deliver(&self, msg: NetMessage) {
        let bound = self.bound.lock();
        let msg = if let Some(tx) = bound.get(&msg.port) {
            match tx.send(msg) {
                Ok(()) => return,
                Err(err) => err.0,
            }
        } else {
            msg
        };
        drop(bound);
        self.pending.lock().entry(msg.port).or_default().push(msg);
    }

    /// Bind a port: install the channel and flush buffered messages.
    pub(crate) fn bind(&self, port: Port, tx: crossbeam::channel::Sender<NetMessage>) {
        {
            let mut bound = self.bound.lock();
            bound.insert(port, tx.clone());
        }
        let pending = self.pending.lock().remove(&port).unwrap_or_default();
        for msg in pending {
            let _ = tx.send(msg);
        }
    }

    /// Remove a port binding (receiver dropped).
    pub(crate) fn unbind(&self, port: Port) {
        self.bound.lock().remove(&port);
    }
}
