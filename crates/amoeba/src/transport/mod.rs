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
//! Both backends share one node end, the [`Endpoint`]: the node's identity,
//! its ports, its ephemeral port numbers, and the accounting the paper
//! measures the layer by (bytes on the wire, interrupts per member). A
//! backend only moves one message to one node ([`Transport::transmit`]);
//! the seam's provided sends check, count and fan out, so a message is
//! sent in one place and delivered in one place on either backend.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use orca_telemetry::{FlightKind, Telemetry};

use crate::message::{Delivery, NetMessage, WIRE_HEADER_BYTES};
use crate::network::{packets_for, NetError, PortReceiver};
use crate::node::{ports, NodeId, Port};
use crate::stats::{NetStats, NetStatsSnapshot};

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

/// One node's end of the communication substrate.
///
/// A backend implements four methods: [`Transport::kind`],
/// [`Transport::is_crashed`], [`Transport::endpoint`] and
/// [`Transport::transmit`], the move of one message to one node. The rest
/// is the seam's, written once over the [`Endpoint`]: the node's identity,
/// its ports, its ephemeral port numbers, its statistics and telemetry, and
/// the three sends, each of which is checked, counted once and handed to
/// `transmit` once per destination.
///
/// Sends are fire-and-forget, never block on the destination, and a send
/// whose destination is unreachable (crashed, unreachable peer) is silently
/// dropped — `Ok(())` means "accepted for transmission", not "delivered".
/// Higher layers own end-to-end recovery (RPC timeouts, sequencer
/// retransmission), exactly as they do over Amoeba's FLIP.
pub trait Transport: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// Fail-stop confirmation oracle: true if `node` is *confirmed* dead.
    /// `false` means "not confirmed", never "definitely alive". Of this
    /// transport's own node it says whether its sends go nowhere.
    fn is_crashed(&self, node: NodeId) -> bool;

    /// This node's endpoint.
    fn endpoint(&self) -> &Endpoint;

    /// Move one counted message to `dst` (this node included): deliver it
    /// there through [`Endpoint::deliver`], or account its loss through
    /// [`Endpoint::discard`] on the row of the node that discarded it.
    /// Only the provided sends call this; a direct call is not counted as
    /// a send.
    fn transmit(&self, dst: NodeId, msg: NetMessage, reliable: bool);

    /// The node this transport endpoint belongs to.
    fn node(&self) -> NodeId {
        self.endpoint().node
    }

    /// Total number of nodes in the cluster / processor pool.
    fn num_nodes(&self) -> usize {
        self.endpoint().nodes
    }

    /// The observability hub (metrics registry, flight recorder, traces).
    fn telemetry(&self) -> &Arc<Telemetry> {
        &self.endpoint().telemetry
    }

    /// Snapshot of the statistics counters: every node's row in the
    /// registry this endpoint counts in (the simulator's nodes, or a
    /// loopback cluster's, share one; a lone socket process fills its own).
    fn stats(&self) -> NetStatsSnapshot {
        self.endpoint().stats.snapshot()
    }

    /// Allocate a fresh ephemeral port. Ports are per-node namespaces and
    /// reply traffic is always addressed to a node, so every node numbers
    /// from [`ports::EPHEMERAL_BASE`]: an RPC request names its reply port
    /// by its distance from there, and a small distance is a one-byte
    /// varint.
    fn alloc_ephemeral_port(&self) -> Port {
        self.endpoint()
            .next_ephemeral
            .fetch_add(1, Ordering::Relaxed)
    }

    /// Bind `port` on this node. Messages that arrived before the bind are
    /// delivered immediately, in arrival order.
    fn bind(&self, port: Port) -> PortReceiver {
        let (tx, rx) = crossbeam::channel::unbounded();
        let endpoint = self.endpoint();
        endpoint.ports.bind(port, tx);
        let ports = Arc::clone(&endpoint.ports);
        PortReceiver::new(
            endpoint.node,
            port,
            rx,
            Box::new(move || ports.unbind(port)),
        )
    }

    /// Reliable point-to-point send (Amoeba RPC transport).
    fn send_reliable(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        unicast(self, dst, port, payload, true)
    }

    /// Unreliable point-to-point datagram.
    fn send(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        unicast(self, dst, port, payload, false)
    }

    /// Unreliable broadcast to every node, including the sender: counted
    /// once, as one medium carries it, and moved to each node in index
    /// order.
    fn broadcast(&self, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        let endpoint = self.endpoint();
        if self.is_crashed(endpoint.node) {
            return Ok(()); // a crashed node's transmissions go nowhere
        }
        endpoint.sent(None, payload.len());
        let msg = NetMessage {
            src: endpoint.node,
            port,
            delivery: Delivery::Broadcast,
            payload,
        };
        for index in 0..endpoint.nodes {
            self.transmit(NodeId::from(index), msg.clone(), false);
        }
        Ok(())
    }
}

/// The provided point-to-point sends: a peer outside the cluster is an
/// error, a crashed sender's send goes nowhere uncounted, any other is
/// counted once and moved.
fn unicast<T: Transport + ?Sized>(
    transport: &T,
    dst: NodeId,
    port: Port,
    payload: Vec<u8>,
    reliable: bool,
) -> Result<(), NetError> {
    let endpoint = transport.endpoint();
    if dst.index() >= endpoint.nodes {
        return Err(NetError::NoSuchNode(dst));
    }
    if transport.is_crashed(endpoint.node) {
        return Ok(()); // a crashed node's transmissions go nowhere
    }
    endpoint.sent(Some(dst), payload.len());
    let msg = NetMessage {
        src: endpoint.node,
        port,
        delivery: Delivery::PointToPoint,
        payload,
    };
    transport.transmit(dst, msg, reliable);
    Ok(())
}

/// One node's end of the network, on either backend: everything about a
/// message but moving it. It owns the node's identity, its port table, its
/// ephemeral port numbers and the statistics and telemetry it counts in,
/// and it accounts each of a message's three events — sent, delivered,
/// discarded — in one method that bumps the counters and records the
/// flight event together. Every event is counted on the row and in the
/// flight ring of the endpoint it happens at.
pub struct Endpoint {
    node: NodeId,
    nodes: usize,
    ports: Arc<PortDemux>,
    next_ephemeral: AtomicU64,
    /// The cluster's statistics table; this endpoint writes only its own
    /// node's row. The simulator's nodes share one table.
    pub(crate) stats: Arc<NetStats>,
    telemetry: Arc<Telemetry>,
}

impl Endpoint {
    /// The endpoint of `node` in a cluster of `nodes`, counting in `stats`
    /// and recording in `telemetry`.
    pub(crate) fn new(
        node: NodeId,
        nodes: usize,
        stats: Arc<NetStats>,
        telemetry: Arc<Telemetry>,
    ) -> Endpoint {
        Endpoint {
            node,
            nodes,
            ports: Arc::new(PortDemux::new()),
            next_ephemeral: AtomicU64::new(ports::EPHEMERAL_BASE),
            stats,
            telemetry,
        }
    }

    /// Count a send of `payload_len` payload bytes to `dst`, or to every
    /// node (`None`: its `Send` event names `u64::MAX`).
    fn sent(&self, dst: Option<NodeId>, payload_len: usize) {
        let wire_bytes = payload_len + WIRE_HEADER_BYTES;
        let packets = packets_for(payload_len);
        match dst {
            Some(_) => self.stats.record_p2p_send(self.node, wire_bytes, packets),
            None => self
                .stats
                .record_broadcast_send(self.node, wire_bytes, packets),
        }
        let to = dst.map_or(u64::MAX, |dst| u64::from(dst.0));
        self.record(FlightKind::Send, to, wire_bytes);
    }

    /// Hand a message copy to its port on this node: one interrupt.
    pub(crate) fn deliver(&self, msg: NetMessage) {
        let wire_bytes = msg.wire_size();
        self.stats.record_delivery(self.node, wire_bytes);
        self.record(FlightKind::Deliver, u64::from(msg.src.0), wire_bytes);
        self.ports.deliver(msg);
    }

    /// Count a copy of `payload_len` payload bytes this node discarded —
    /// one it could not send to `peer`, or one from `peer` lost on its way
    /// here or on arrival (see [`crate::stats::NodeCounters::dropped`]).
    pub(crate) fn discard(&self, peer: NodeId, payload_len: usize) {
        self.stats.record_drop(self.node);
        let wire_bytes = payload_len + WIRE_HEADER_BYTES;
        self.record(FlightKind::Drop, u64::from(peer.0), wire_bytes);
    }

    fn record(&self, kind: FlightKind, peer: u64, wire_bytes: usize) {
        self.telemetry
            .record_traced(self.node.0, kind, peer, wire_bytes as u64);
    }
}

/// The port-demultiplexing table of one endpoint: bound ports deliver into a
/// channel, traffic for unbound ports is buffered until the bind (so higher
/// layers need not orchestrate start-up order).
struct PortDemux {
    bound:
        parking_lot::Mutex<std::collections::HashMap<Port, crossbeam::channel::Sender<NetMessage>>>,
    pending: parking_lot::Mutex<std::collections::HashMap<Port, Vec<NetMessage>>>,
}

impl PortDemux {
    fn new() -> Self {
        PortDemux {
            bound: parking_lot::Mutex::new(std::collections::HashMap::new()),
            pending: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Route a message to its port's channel, or buffer it when unbound.
    fn deliver(&self, msg: NetMessage) {
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
    fn bind(&self, port: Port, tx: crossbeam::channel::Sender<NetMessage>) {
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
    fn unbind(&self, port: Port) {
        self.bound.lock().remove(&port);
    }
}
