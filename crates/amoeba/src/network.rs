//! The simulated broadcast network connecting the processor pool.
//!
//! A [`Network`] owns one inbox per node; each inbox demultiplexes incoming
//! messages onto *ports* bound by the layers above (group communication, RPC,
//! runtime systems, applications). Three transmission primitives exist:
//!
//! * [`NetworkHandle::send_reliable`] — point-to-point, never perturbed by
//!   fault injection. This models Amoeba RPC-style transport, which presents
//!   reliable request/reply semantics to its users.
//! * [`NetworkHandle::send`] — point-to-point datagram, subject to fault
//!   injection. Used by the group-communication protocols, which implement
//!   their own recovery.
//! * [`NetworkHandle::broadcast`] — hardware-style broadcast to every node,
//!   subject to fault injection (each destination copy is perturbed
//!   independently, like receiver overruns on an Ethernet).
//!
//! Messages sent to a port that is not yet bound are buffered and flushed
//! when the port is bound, so higher layers do not need to orchestrate
//! start-up order.
//!
//! Since the transport seam refactor, [`NetworkHandle`] is a thin wrapper
//! over an `Arc<dyn Transport>` ([`crate::transport::Transport`]): the
//! simulated network here is the default [`crate::transport::SimTransport`]
//! backend, and the same handle type drives the real TCP/UDP
//! [`crate::transport::SocketTransport`]. Everything specific to the
//! *simulation* — fault injection, crash/recover, the model-checking
//! schedule driver — stays on [`Network`] itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use orca_telemetry::{FlightKind, Telemetry};
use parking_lot::Mutex;

use crate::fault::{FaultAction, FaultConfig, FaultInjector};
use crate::message::{NetMessage, WIRE_HEADER_BYTES};
use crate::node::{NodeId, Port};
use crate::sched::{HeldDescriptor, MsgId, SchedState, SchedulerConfig};
use crate::stats::{NetStats, NetStatsSnapshot};
use crate::transport::{Endpoint, SimTransport, Transport, TransportKind};

/// Configuration of a simulated network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of nodes in the processor pool.
    pub nodes: usize,
    /// Fault injection applied to unreliable traffic.
    pub fault: FaultConfig,
}

impl NetworkConfig {
    /// A reliable network with `nodes` nodes.
    pub fn reliable(nodes: usize) -> Self {
        NetworkConfig::with_fault(nodes, FaultConfig::reliable())
    }

    /// A network with the given fault configuration.
    pub fn with_fault(nodes: usize, fault: FaultConfig) -> Self {
        NetworkConfig { nodes, fault }
    }
}

/// Payload bytes per packet (10 Mb/s Ethernet MTU minus headers), on either
/// backend: a larger message is counted as several packets. The paper's
/// dynamic PB/BB choice switches protocol at one packet.
pub const DEFAULT_PACKET_PAYLOAD: usize = 1480;

/// Errors surfaced by the network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node id is outside the processor pool.
    NoSuchNode(NodeId),
    /// A blocking receive timed out.
    Timeout,
    /// The channel behind a port was disconnected (network shut down).
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchNode(node) => write!(f, "no such node: {node}"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Disconnected => write!(f, "port disconnected"),
        }
    }
}

impl std::error::Error for NetError {}

/// One simulated node: its endpoint, and what the simulator adds to it.
struct SimNode {
    endpoint: Endpoint,
    /// Messages held back by the reordering fault, keyed by port.
    holdback: Mutex<Vec<NetMessage>>,
    /// True when the node is simulated as crashed.
    crashed: AtomicBool,
}

pub(crate) struct NetworkCore {
    config: NetworkConfig,
    nodes: Vec<SimNode>,
    telemetry: Arc<Telemetry>,
    injector: Mutex<FaultInjector>,
    /// Installed schedule driver (model checking); `None` in normal runs.
    sched: Mutex<Option<SchedState>>,
    /// Monotone counter of delivery events (enqueues, holds, drops), used
    /// by schedule drivers to detect quiescence.
    activity: AtomicU64,
}

impl NetworkCore {
    pub(crate) fn endpoint(&self, node: NodeId) -> &Endpoint {
        &self.nodes[node.index()].endpoint
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed.load(Ordering::SeqCst)
    }

    fn enqueue(&self, dst: NodeId, msg: NetMessage) {
        self.activity.fetch_add(1, Ordering::SeqCst);
        self.endpoint(dst).deliver(msg);
    }

    /// A copy lost on its way to `dst`, counted there.
    fn discard(&self, dst: NodeId, msg: &NetMessage) {
        self.activity.fetch_add(1, Ordering::SeqCst);
        self.endpoint(dst).discard(msg.src, msg.payload.len());
    }

    /// Deliver a message released from the held pool: a release models a
    /// packet that was already on the wire, so a crash of the *source* after
    /// the send does not stop it, but a crashed *destination* discards it.
    fn deliver_released(&self, dst: NodeId, msg: NetMessage) {
        if self.is_crashed(dst) {
            self.discard(dst, &msg);
        } else {
            self.enqueue(dst, msg);
        }
    }

    /// Move one message to `dst`: discarded there if it is crashed, held by
    /// an installed scheduler, or else perturbed by one fault-injector draw
    /// (unreliable traffic only).
    pub(crate) fn transmit(&self, dst: NodeId, msg: NetMessage, reliable: bool) {
        if self.is_crashed(dst) {
            self.discard(dst, &msg);
            return;
        }
        // Schedule-driver seam: while a scheduler is installed, hold
        // everything except passthrough traffic, and never consult the
        // fault injector (the driver makes the drop decisions).
        {
            let mut sched = self.sched.lock();
            if let Some(state) = sched.as_mut() {
                if !state.is_passthrough(msg.port) {
                    state.hold(dst, msg, reliable);
                    self.activity.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                drop(sched);
                self.enqueue(dst, msg);
                return;
            }
        }
        let action = if reliable {
            FaultAction::Deliver
        } else {
            self.injector.lock().decide()
        };
        match action {
            FaultAction::Drop => self.discard(dst, &msg),
            FaultAction::Deliver => {
                self.enqueue(dst, msg);
                self.release_holdback(dst);
            }
            FaultAction::Duplicate => {
                self.enqueue(dst, msg.clone());
                self.enqueue(dst, msg);
                self.release_holdback(dst);
            }
            FaultAction::HoldBack => {
                self.activity.fetch_add(1, Ordering::SeqCst);
                self.nodes[dst.index()].holdback.lock().push(msg);
            }
        }
    }

    fn release_holdback(&self, dst: NodeId) {
        let held: Vec<NetMessage> = {
            let mut holdback = self.nodes[dst.index()].holdback.lock();
            std::mem::take(&mut *holdback)
        };
        for msg in held {
            self.enqueue(dst, msg);
        }
    }
}

/// A simulated broadcast network shared by all nodes of the processor pool.
///
/// `Network` is cheaply cloneable (it is an `Arc` internally); clones refer to
/// the same network.
#[derive(Clone)]
pub struct Network {
    core: Arc<NetworkCore>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.core.config.nodes)
            .field("fault", &self.core.config.fault)
            .finish()
    }
}

impl Network {
    /// Create a network from a configuration.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.nodes > 0, "network needs at least one node");
        let telemetry = Telemetry::new(config.nodes);
        let stats = Arc::new(NetStats::new(telemetry.registry(), config.nodes));
        let nodes = (0..config.nodes)
            .map(|index| SimNode {
                endpoint: Endpoint::new(
                    index.into(),
                    config.nodes,
                    Arc::clone(&stats),
                    Arc::clone(&telemetry),
                ),
                holdback: Mutex::new(Vec::new()),
                crashed: AtomicBool::new(false),
            })
            .collect();
        let injector = Mutex::new(FaultInjector::new(config.fault));
        Network {
            core: Arc::new(NetworkCore {
                config,
                nodes,
                telemetry,
                injector,
                sched: Mutex::new(None),
                activity: AtomicU64::new(0),
            }),
        }
    }

    /// Convenience constructor for a reliable network.
    pub fn reliable(nodes: usize) -> Self {
        Network::new(NetworkConfig::reliable(nodes))
    }

    /// Number of nodes in the pool.
    pub fn num_nodes(&self) -> usize {
        self.core.config.nodes
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.core.config.nodes).map(NodeId::from).collect()
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetworkConfig {
        &self.core.config
    }

    /// Obtain the per-node handle used to send and receive messages.
    pub fn handle(&self, node: NodeId) -> NetworkHandle {
        assert!(node.index() < self.core.config.nodes, "no such node {node}");
        NetworkHandle::from_transport(Arc::new(SimTransport::new(Arc::clone(&self.core), node)))
    }

    /// Snapshot of all statistics counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        // Every node's endpoint counts in one shared table.
        self.core.endpoint(NodeId(0)).stats.snapshot()
    }

    /// The observability hub shared by every layer running on this
    /// network: metrics registry, flight recorders, trace minting.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.core.telemetry
    }

    /// Simulate a crash of `node`: all traffic to and from it is discarded
    /// until [`Network::recover`] is called.
    pub fn crash(&self, node: NodeId) {
        self.core.nodes[node.index()]
            .crashed
            .store(true, Ordering::SeqCst);
        self.core
            .telemetry
            .record_traced(node.0, FlightKind::Crash, 0, 0);
    }

    /// Undo a simulated crash.
    pub fn recover(&self, node: NodeId) {
        self.core.nodes[node.index()]
            .crashed
            .store(false, Ordering::SeqCst);
        self.core
            .telemetry
            .record_traced(node.0, FlightKind::Recover, 0, 0);
    }

    /// True if `node` is currently simulated as crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.core.is_crashed(node)
    }

    /// Nodes that are currently alive (not crashed).
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .into_iter()
            .filter(|n| !self.is_crashed(*n))
            .collect()
    }

    /// Install (`Some`) or uninstall (`None`) a schedule driver.
    ///
    /// While installed, every message sent to a non-passthrough port is
    /// *held* instead of delivered, and the driver releases or drops held
    /// messages explicitly ([`Network::sched_release`],
    /// [`Network::sched_drop`]); passthrough traffic is delivered
    /// immediately and reliably. Uninstalling flushes all still-held
    /// messages in send order.
    pub fn set_scheduler(&self, config: Option<SchedulerConfig>) {
        let previous = {
            let mut sched = self.core.sched.lock();
            std::mem::replace(&mut *sched, config.map(SchedState::new))
        };
        if let Some(state) = previous {
            for entry in state.held {
                self.core.deliver_released(entry.dst, entry.msg);
            }
        }
    }

    /// Descriptors of all currently held messages, in canonical order.
    /// Empty when no scheduler is installed.
    pub fn sched_pending(&self) -> Vec<HeldDescriptor> {
        self.core
            .sched
            .lock()
            .as_ref()
            .map(|s| s.descriptors())
            .unwrap_or_default()
    }

    /// Release the held message `id` for delivery. Returns false if no such
    /// message is held. A crash of the source after the send does not stop
    /// the release (the packet was in flight); a crashed destination
    /// discards it.
    pub fn sched_release(&self, id: MsgId) -> bool {
        let entry = {
            let mut sched = self.core.sched.lock();
            sched.as_mut().and_then(|s| s.take(id))
        };
        match entry {
            Some(entry) => {
                self.core.deliver_released(entry.dst, entry.msg);
                true
            }
            None => false,
        }
    }

    /// Drop the held message `id` (models packet loss). Only unreliable
    /// traffic may be dropped; returns false for reliable messages or
    /// unknown ids, leaving them held.
    pub fn sched_drop(&self, id: MsgId) -> bool {
        let mut sched = self.core.sched.lock();
        let Some(state) = sched.as_mut() else {
            return false;
        };
        let reliable = match state.held.iter().find(|e| e.id == id) {
            Some(entry) => entry.reliable,
            None => return false,
        };
        if reliable {
            return false;
        }
        let entry = state.take(id).expect("entry just found");
        drop(sched);
        self.core.discard(entry.dst, &entry.msg);
        true
    }

    /// Monotone counter of delivery events (enqueues, holds, drops). A
    /// schedule driver polls this to detect quiescence: when the counter is
    /// stable for a while, no message is being processed or produced.
    pub fn activity(&self) -> u64 {
        self.core.activity.load(Ordering::SeqCst)
    }
}

/// Number of [`DEFAULT_PACKET_PAYLOAD`]-byte packets a message of
/// `payload_len` payload bytes occupies on the wire (header included, at
/// least one packet).
pub fn packets_for(payload_len: usize) -> usize {
    let total = payload_len + WIRE_HEADER_BYTES;
    total.div_ceil(DEFAULT_PACKET_PAYLOAD).max(1)
}

/// Per-node endpoint of the network.
///
/// Since the transport seam refactor this is a thin, cheaply cloneable
/// wrapper over an `Arc<dyn Transport>`; the same handle type serves the
/// simulated in-process network and the real TCP/UDP socket backend, so
/// everything above the packet layer (RPC, group communication, the runtime
/// systems) is transport-agnostic.
#[derive(Clone)]
pub struct NetworkHandle {
    inner: Arc<dyn Transport>,
    /// Reply mailboxes — bound ephemeral ports — that no RPC is waiting on,
    /// kept bound for the next call through this handle or a clone of it
    /// (see [`crate::rpc`]). They unbind when the last clone goes.
    idle_mailboxes: Arc<Mutex<Vec<PortReceiver>>>,
}

impl std::fmt::Debug for NetworkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkHandle")
            .field("node", &self.inner.node())
            .field("kind", &self.inner.kind())
            .finish()
    }
}

impl NetworkHandle {
    /// Wrap a transport backend in the handle type every layer above uses.
    pub fn from_transport(inner: Arc<dyn Transport>) -> Self {
        NetworkHandle {
            inner,
            idle_mailboxes: Arc::default(),
        }
    }

    /// The transport backend behind this handle.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.inner
    }

    /// Which backend this handle runs on.
    pub fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    /// The node this handle belongs to.
    pub fn node(&self) -> NodeId {
        self.inner.node()
    }

    /// Number of nodes in the pool.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// All node ids in the pool.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.inner.num_nodes()).map(NodeId::from).collect()
    }

    /// The transport's observability hub (see [`Network::telemetry`]).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.inner.telemetry()
    }

    /// Snapshot of the transport's statistics counters.
    ///
    /// On the simulated network every node shares one statistics table; on
    /// the socket backend each process fills in its own node's row.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.inner.stats()
    }

    /// True if `node` is *confirmed* crashed.
    ///
    /// This is the fail-stop confirmation oracle the group layer consults
    /// before deposing a sequencer: on the simulated network it is the
    /// perfect crash flag; on the socket backend it reports nodes the
    /// failure detector has declared dead (`SocketTransport::confirm_dead`).
    /// A `false` answer means "not confirmed", never "definitely alive".
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.is_crashed(node)
    }

    /// Allocate a fresh ephemeral port (unique for this node).
    pub fn alloc_ephemeral_port(&self) -> Port {
        self.inner.alloc_ephemeral_port()
    }

    /// Bind `port` on this node, returning the receiving end.
    ///
    /// Any messages that arrived for the port before it was bound are
    /// delivered immediately, in arrival order.
    pub fn bind(&self, port: Port) -> PortReceiver {
        self.inner.bind(port)
    }

    /// A bound ephemeral port to receive RPC replies on: one an earlier
    /// call parked, or — when every mailbox is in use — a fresh one.
    pub(crate) fn take_mailbox(&self) -> PortReceiver {
        let parked = self.idle_mailboxes.lock().pop();
        parked.unwrap_or_else(|| self.bind(self.alloc_ephemeral_port()))
    }

    /// Keep `mailbox` bound for a later call. Only a mailbox that nothing
    /// can still be sent to may be parked: every request that named it has
    /// been answered and the answer taken off it.
    pub(crate) fn park_mailbox(&self, mailbox: PortReceiver) {
        self.idle_mailboxes.lock().push(mailbox);
    }

    /// Reliable point-to-point send (models Amoeba RPC transport).
    pub fn send_reliable(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.send_reliable(dst, port, payload)
    }

    /// Unreliable point-to-point datagram (subject to fault injection on the
    /// simulated network; a UDP datagram on the socket backend).
    pub fn send(&self, dst: NodeId, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.send(dst, port, payload)
    }

    /// Unreliable hardware-style broadcast to every node (including the
    /// sender). Each destination copy is perturbed independently by the fault
    /// injector, but the transmission is counted once on the wire.
    pub fn broadcast(&self, port: Port, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.broadcast(port, payload)
    }
}

/// Receiving end of a bound port. Unbinds the port when dropped.
pub struct PortReceiver {
    node: NodeId,
    port: Port,
    rx: Receiver<NetMessage>,
    unbind: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for PortReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortReceiver")
            .field("node", &self.node)
            .field("port", &self.port)
            .finish()
    }
}

impl PortReceiver {
    /// Assemble a receiver from its delivery channel and an unbind action
    /// run on drop. Transport backends call this from `Transport::bind`.
    pub(crate) fn new(
        node: NodeId,
        port: Port,
        rx: Receiver<NetMessage>,
        unbind: Box<dyn FnOnce() + Send>,
    ) -> Self {
        PortReceiver {
            node,
            port,
            rx,
            unbind: Some(unbind),
        }
    }

    /// The node this receiver lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The port this receiver is bound to.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<NetMessage, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<NetMessage> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<NetMessage, NetError> {
        self.rx.recv_timeout(timeout).map_err(|err| match err {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Number of messages waiting in the port queue.
    pub fn queued(&self) -> usize {
        self.rx.len()
    }

    /// Borrow the underlying channel receiver, e.g. for use in
    /// `crossbeam::select!` loops that also watch command channels.
    pub fn receiver(&self) -> &Receiver<NetMessage> {
        &self.rx
    }
}

impl Drop for PortReceiver {
    fn drop(&mut self) {
        if let Some(unbind) = self.unbind.take() {
            unbind();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Delivery;
    use crate::node::ports;

    #[test]
    fn point_to_point_delivery() {
        let net = Network::reliable(3);
        let rx = net.handle(NodeId(2)).bind(ports::USER_BASE);
        net.handle(NodeId(0))
            .send_reliable(NodeId(2), ports::USER_BASE, vec![1, 2, 3])
            .unwrap();
        let msg = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.src, NodeId(0));
        assert_eq!(msg.payload, vec![1, 2, 3]);
        assert_eq!(msg.delivery, Delivery::PointToPoint);
    }

    #[test]
    fn broadcast_reaches_every_node_including_sender() {
        let net = Network::reliable(4);
        let receivers: Vec<_> = net
            .node_ids()
            .into_iter()
            .map(|n| net.handle(n).bind(ports::USER_BASE))
            .collect();
        net.handle(NodeId(1))
            .broadcast(ports::USER_BASE, vec![9])
            .unwrap();
        for rx in &receivers {
            let msg = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(msg.src, NodeId(1));
            assert_eq!(msg.delivery, Delivery::Broadcast);
        }
    }

    #[test]
    fn messages_before_bind_are_buffered() {
        let net = Network::reliable(2);
        net.handle(NodeId(0))
            .send_reliable(NodeId(1), 77, vec![42])
            .unwrap();
        let rx = net.handle(NodeId(1)).bind(77);
        let msg = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.payload, vec![42]);
    }

    #[test]
    fn crash_discards_traffic_and_recover_restores_it() {
        let net = Network::reliable(2);
        let rx = net.handle(NodeId(1)).bind(5);
        net.crash(NodeId(1));
        assert!(net.is_crashed(NodeId(1)));
        assert!(net.handle(NodeId(0)).is_crashed(NodeId(1)));
        net.handle(NodeId(0))
            .send_reliable(NodeId(1), 5, vec![1])
            .unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        net.recover(NodeId(1));
        net.handle(NodeId(0))
            .send_reliable(NodeId(1), 5, vec![2])
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![2]
        );
        assert_eq!(net.alive_nodes().len(), 2);
    }

    #[test]
    fn lossy_network_drops_unreliable_but_not_reliable_traffic() {
        let net = Network::new(NetworkConfig::with_fault(2, FaultConfig::lossy(1.0, 1)));
        let rx = net.handle(NodeId(1)).bind(5);
        let handle = net.handle(NodeId(0));
        handle.send(NodeId(1), 5, vec![1]).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        handle.send_reliable(NodeId(1), 5, vec![2]).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![2]
        );
        assert!(net.stats().total_dropped() >= 1);
    }

    #[test]
    fn stats_account_broadcast_once_on_wire() {
        let net = Network::reliable(8);
        let _receivers: Vec<_> = net
            .node_ids()
            .into_iter()
            .map(|n| net.handle(n).bind(1))
            .collect();
        net.handle(NodeId(0)).broadcast(1, vec![0; 100]).unwrap();
        let stats = net.stats();
        assert_eq!(stats.node(NodeId(0)).broadcasts_sent, 1);
        assert_eq!(stats.total_wire_bytes(), (100 + WIRE_HEADER_BYTES) as u64);
        assert_eq!(stats.total_interrupts(), 8);
    }

    #[test]
    fn packets_for_fragmentation() {
        assert_eq!(DEFAULT_PACKET_PAYLOAD, 1480);
        assert_eq!(packets_for(0), 1);
        assert_eq!(packets_for(1000), 1);
        assert_eq!(packets_for(1480), 2);
        assert_eq!(packets_for(10_000), 7);
    }

    #[test]
    fn ephemeral_ports_are_unique() {
        let net = Network::reliable(2);
        let handle = net.handle(NodeId(0));
        let a = handle.alloc_ephemeral_port();
        let b = handle.alloc_ephemeral_port();
        let c = net.handle(NodeId(1)).alloc_ephemeral_port();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(a >= ports::EPHEMERAL_BASE);
    }

    #[test]
    fn handle_reports_sim_transport_kind() {
        let net = Network::reliable(2);
        assert_eq!(net.handle(NodeId(0)).kind(), TransportKind::Sim);
        assert_eq!(net.handle(NodeId(1)).stats().per_node.len(), 2);
    }

    #[test]
    fn scheduler_holds_and_releases_in_chosen_order() {
        let net = Network::reliable(2);
        let rx = net.handle(NodeId(1)).bind(5);
        net.set_scheduler(Some(SchedulerConfig::default_for_mc()));
        let handle = net.handle(NodeId(0));
        handle.send_reliable(NodeId(1), 5, vec![1]).unwrap();
        handle.send_reliable(NodeId(1), 5, vec![2]).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(30)).is_err());
        let pending = net.sched_pending();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].id.seq, 0);
        assert_eq!(pending[1].id.seq, 1);
        // Release out of send order: the driver decides.
        assert!(net.sched_release(pending[1].id));
        assert!(net.sched_release(pending[0].id));
        assert!(!net.sched_release(pending[0].id));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![2]
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![1]
        );
        net.set_scheduler(None);
    }

    #[test]
    fn scheduler_drop_only_for_unreliable_traffic() {
        let net = Network::reliable(2);
        let rx = net.handle(NodeId(1)).bind(5);
        net.set_scheduler(Some(SchedulerConfig::default_for_mc()));
        let handle = net.handle(NodeId(0));
        handle.send_reliable(NodeId(1), 5, vec![1]).unwrap();
        handle.send(NodeId(1), 5, vec![2]).unwrap();
        let pending = net.sched_pending();
        let reliable = pending.iter().find(|d| d.reliable).unwrap().id;
        let unreliable = pending.iter().find(|d| !d.reliable).unwrap().id;
        assert!(!net.sched_drop(reliable), "reliable must not be droppable");
        assert!(net.sched_drop(unreliable));
        assert_eq!(net.sched_pending().len(), 1);
        // Uninstalling flushes the still-held reliable message.
        net.set_scheduler(None);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![1]
        );
        assert!(rx.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(net.stats().total_dropped() >= 1);
    }

    #[test]
    fn scheduler_passthrough_and_crash_semantics() {
        let net = Network::new(NetworkConfig::with_fault(3, FaultConfig::lossy(1.0, 7)));
        let hb = net.handle(NodeId(1)).bind(ports::MEMBERSHIP);
        let rx = net.handle(NodeId(2)).bind(5);
        net.set_scheduler(Some(SchedulerConfig::default_for_mc()));
        let handle = net.handle(NodeId(0));
        // Passthrough traffic flows immediately even though the fault config
        // would drop everything: the injector is bypassed under a scheduler.
        handle.send(NodeId(1), ports::MEMBERSHIP, vec![9]).unwrap();
        assert_eq!(
            hb.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![9]
        );
        // A held message released after its source crashed still arrives (it
        // was in flight); one released to a crashed destination is dropped.
        handle.send_reliable(NodeId(2), 5, vec![1]).unwrap();
        handle.send_reliable(NodeId(2), 5, vec![2]).unwrap();
        let pending = net.sched_pending();
        net.crash(NodeId(0));
        assert!(net.sched_release(pending[0].id));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            vec![1]
        );
        net.crash(NodeId(2));
        assert!(net.sched_release(pending[1].id));
        assert!(rx.recv_timeout(Duration::from_millis(30)).is_err());
        net.set_scheduler(None);
    }

    #[test]
    fn activity_counter_tracks_delivery_events() {
        let net = Network::reliable(2);
        let _rx = net.handle(NodeId(1)).bind(5);
        let before = net.activity();
        net.handle(NodeId(0))
            .send_reliable(NodeId(1), 5, vec![1])
            .unwrap();
        assert!(net.activity() > before);
        net.set_scheduler(Some(SchedulerConfig::default_for_mc()));
        let held_before = net.activity();
        net.handle(NodeId(0))
            .send_reliable(NodeId(1), 5, vec![2])
            .unwrap();
        assert!(net.activity() > held_before, "holding counts as activity");
        net.set_scheduler(None);
    }

    #[test]
    fn send_to_unknown_node_errors() {
        let net = Network::reliable(2);
        let err = net
            .handle(NodeId(0))
            .send_reliable(NodeId(9), 1, vec![])
            .unwrap_err();
        assert_eq!(err, NetError::NoSuchNode(NodeId(9)));
    }
}
