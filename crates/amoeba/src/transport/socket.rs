//! Real-socket transport backend: framed TCP plus UDP over a static peer
//! list.
//!
//! * **Reliable traffic** ([`Transport::send_reliable`]) rides TCP with a
//!   big-endian `u32` length prefix per frame and one cached connection per
//!   peer (opened lazily, reused across sends, reopened once on failure).
//! * **Unreliable traffic** ([`Transport::send`], [`Transport::broadcast`])
//!   rides UDP, one datagram per frame; broadcast is fanned out to every
//!   peer plus a local self-delivery, mirroring the simulator's
//!   hardware-broadcast semantics. Frames too large for a UDP datagram
//!   fall back to TCP per peer (keeping their delivery class), so the
//!   group layer's large state transfers still arrive.
//!
//! The seam counts every send once and hands this backend one copy per
//! destination ([`Transport::transmit`]); what this module adds is the
//! choice of socket, the connection cache, the reader threads and the
//! `transport.node<i>.*` counters. Send semantics mirror the simulator:
//! `Ok(())` means "accepted", not "delivered". A peer that cannot be
//! reached (confirmed dead, refused connection) is a silent drop, counted
//! on the sender's row; a copy that reaches a crashed or closing endpoint
//! is counted on its row — higher layers already own end-to-end recovery.
//! The fail-stop oracle [`Transport::is_crashed`] reports only *confirmed*
//! deaths, fed by the failure detector through
//! [`SocketTransport::confirm_dead`].
//!
//! One [`SocketTransport`] serves one node, usually one OS process
//! (`orca-node`); [`SocketTransport::start_loopback_cluster`] builds an
//! N-node cluster inside a single process for tests and benches.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use orca_telemetry::{Counter, FlightKind, Registry, Telemetry};
use parking_lot::Mutex;

use crate::message::{Delivery, NetMessage};
use crate::node::NodeId;
use crate::stats::NetStats;
use crate::transport::{Endpoint, Frame, Transport, TransportKind, FRAME_HEADER_BYTES};

/// Largest payload routed over UDP; bigger frames fall back to framed TCP
/// (a UDP datagram tops out at 65507 bytes, minus our frame header and
/// headroom).
pub const MAX_UDP_PAYLOAD: usize = 60_000;

/// Upper bound on an incoming TCP frame; larger prefixes are treated as
/// protocol corruption and the connection is dropped.
const MAX_TCP_FRAME: usize = 256 * 1024 * 1024;

/// How often the datagram receive loop re-checks the shutdown flag (and how
/// long the accept loop backs off after a failed `accept`).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Read-buffer size per accepted connection: a burst of small frames costs
/// one `read` per buffer-full instead of two per frame.
const TCP_READ_BUFFER: usize = 64 * 1024;

/// Cap on establishing a TCP connection to a peer.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Static cluster bootstrap configuration: who am I, where does everybody
/// (including me) listen.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This process's node id.
    pub node: NodeId,
    /// One listen address per node, indexed by node id; `peers[node]` is
    /// this process's own bind address. Every process of a cluster must use
    /// the same list in the same order.
    pub peers: Vec<SocketAddr>,
}

impl SocketConfig {
    /// The configuration of `node` in the cluster listening at `peers`.
    pub fn new(node: NodeId, peers: Vec<SocketAddr>) -> Self {
        SocketConfig { node, peers }
    }
}

/// Per-transport counters: registry handles named `transport.node{N}.*`.
#[derive(Debug)]
struct TransportCounters {
    tcp_connects: Counter,
    tcp_accepts: Counter,
    tcp_frames_sent: Counter,
    tcp_frames_received: Counter,
    tcp_reconnects: Counter,
    tcp_send_failures: Counter,
    udp_datagrams_sent: Counter,
    udp_datagrams_received: Counter,
    broadcast_tcp_fallbacks: Counter,
    decode_errors: Counter,
}

impl TransportCounters {
    fn new(registry: &Registry, node: NodeId) -> TransportCounters {
        let counter =
            |name: &str| registry.counter(&format!("transport.node{}.{name}", node.index()));
        TransportCounters {
            tcp_connects: counter("tcp.connects"),
            tcp_accepts: counter("tcp.accepts"),
            tcp_frames_sent: counter("tcp.frames_sent"),
            tcp_frames_received: counter("tcp.frames_received"),
            tcp_reconnects: counter("tcp.reconnects"),
            tcp_send_failures: counter("tcp.send_failures"),
            udp_datagrams_sent: counter("udp.datagrams_sent"),
            udp_datagrams_received: counter("udp.datagrams_received"),
            broadcast_tcp_fallbacks: counter("broadcast_tcp_fallbacks"),
            decode_errors: counter("decode_errors"),
        }
    }
}

struct SocketInner {
    endpoint: Endpoint,
    peers: Vec<SocketAddr>,
    /// Where shutdown connects to wake the accept loop out of `accept()`.
    wake_addr: SocketAddr,
    udp: UdpSocket,
    /// Cached outbound TCP connection per peer.
    conns: Vec<Mutex<Option<TcpStream>>>,
    /// Accepted inbound streams, kept so shutdown can unblock their readers.
    accepted: Mutex<Vec<TcpStream>>,
    /// The accept, datagram and connection-reader threads, joined at
    /// shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Peers the failure detector has confirmed dead (fail-stop: sticky).
    confirmed_dead: Vec<AtomicBool>,
    /// Local crash simulation for in-process loopback clusters: sends go
    /// nowhere, incoming traffic is discarded.
    local_crash: AtomicBool,
    shutdown: AtomicBool,
    counters: TransportCounters,
}

impl SocketInner {
    /// Route a frame a reader thread received to this node.
    fn receive(&self, frame: Frame) {
        if frame.dst != self.endpoint.node {
            self.counters.decode_errors.inc();
            return;
        }
        self.arrive(frame.into_message());
    }

    /// A message for this node, from a peer or from itself: discarded here
    /// while the endpoint is crashed or closing.
    fn arrive(&self, msg: NetMessage) {
        if self.shutdown.load(Ordering::SeqCst) || self.local_crash.load(Ordering::SeqCst) {
            self.endpoint.discard(msg.src, msg.payload.len());
        } else {
            self.endpoint.deliver(msg);
        }
    }

    /// Send one frame over the cached TCP connection to `dst`, reconnecting
    /// once on failure. Unreachable peers are a silent drop.
    fn tcp_send(&self, dst: NodeId, frame: &Frame) {
        if self.confirmed_dead[dst.index()].load(Ordering::SeqCst) {
            self.endpoint.discard(dst, frame.payload.len());
            return;
        }
        // The length prefix and the frame, in one buffer.
        let len = frame.encoded_len();
        let mut buf = Vec::with_capacity(4 + len);
        buf.extend_from_slice(&(len as u32).to_be_bytes());
        frame.encode_into(&mut buf);

        let mut guard = self.conns[dst.index()].lock();
        for attempt in 0..2 {
            if guard.is_none() {
                match TcpStream::connect_timeout(&self.peers[dst.index()], CONNECT_TIMEOUT) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        self.counters.tcp_connects.inc();
                        if attempt > 0 {
                            self.counters.tcp_reconnects.inc();
                        }
                        *guard = Some(stream);
                    }
                    Err(_) => break,
                }
            }
            let stream = guard.as_mut().expect("connection just ensured");
            match stream.write_all(&buf) {
                Ok(()) => {
                    self.counters.tcp_frames_sent.inc();
                    return;
                }
                Err(_) => {
                    // Stale connection (peer restarted or died): drop the
                    // cache; the next loop iteration reconnects once.
                    *guard = None;
                }
            }
        }
        drop(guard);
        self.counters.tcp_send_failures.inc();
        self.endpoint.discard(dst, frame.payload.len());
    }

    /// Send one frame as a UDP datagram; errors are silent drops.
    fn udp_send(&self, dst: NodeId, frame: &Frame) {
        let sent = !self.confirmed_dead[dst.index()].load(Ordering::SeqCst)
            && self
                .udp
                .send_to(&frame.encode(), self.peers[dst.index()])
                .is_ok();
        if sent {
            self.counters.udp_datagrams_sent.inc();
        } else {
            self.endpoint.discard(dst, frame.payload.len());
        }
    }
}

/// Own one node's sockets before the peer list is final.
///
/// Binding is split from starting so in-process clusters can bind N
/// listeners on ephemeral ports first, collect the actual addresses, and
/// only then start every transport with the complete list.
pub struct BoundSocket {
    node: NodeId,
    listener: TcpListener,
    udp: UdpSocket,
}

impl BoundSocket {
    /// Bind the TCP listener and UDP socket for `node` on `addr`.
    ///
    /// With an explicit port, both sockets bind that port. With port `0`
    /// the OS picks the TCP port and the UDP socket is bound to the same
    /// number (retrying with fresh listeners until a port is free on both).
    pub fn bind(node: NodeId, addr: SocketAddr) -> std::io::Result<BoundSocket> {
        if addr.port() != 0 {
            let listener = TcpListener::bind(addr)?;
            let udp = UdpSocket::bind(addr)?;
            return Ok(BoundSocket {
                node,
                listener,
                udp,
            });
        }
        let mut last_err = None;
        for _ in 0..32 {
            let listener = TcpListener::bind(addr)?;
            let actual = listener.local_addr()?;
            match UdpSocket::bind(actual) {
                Ok(udp) => {
                    return Ok(BoundSocket {
                        node,
                        listener,
                        udp,
                    })
                }
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.expect("at least one UDP bind attempted"))
    }

    /// The address both sockets are bound to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the transport: spawn the accept and receive loops.
    ///
    /// `peers[node]` must be this socket's own address. Pass a shared
    /// `telemetry` to pool several in-process transports onto one hub
    /// (loopback clusters); `None` builds a private hub sized to the
    /// cluster.
    pub fn start(
        self,
        peers: Vec<SocketAddr>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Arc<SocketTransport> {
        let node = self.node;
        let nodes = peers.len();
        assert!(
            node.index() < nodes,
            "node {node} outside peer list of {nodes}"
        );
        let telemetry = telemetry.unwrap_or_else(|| Telemetry::new(nodes));
        let mut wake_addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        if wake_addr.ip().is_unspecified() {
            // Bound to every interface: reach it over loopback.
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let inner = Arc::new(SocketInner {
            counters: TransportCounters::new(telemetry.registry(), node),
            endpoint: Endpoint::new(
                node,
                nodes,
                Arc::new(NetStats::new(telemetry.registry(), nodes)),
                telemetry,
            ),
            peers,
            wake_addr,
            udp: self.udp,
            conns: (0..nodes).map(|_| Mutex::new(None)).collect(),
            accepted: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            confirmed_dead: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            local_crash: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });

        // Held while both loops start, so the accept loop's first reader
        // queues behind them: the accept loop is the first thread listed.
        let mut threads = inner.threads.lock();
        let accept_inner = Arc::clone(&inner);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name(format!("orca-accept-{}", node.index()))
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawn accept thread");

        let udp_inner = Arc::clone(&inner);
        let udp = std::thread::Builder::new()
            .name(format!("orca-udp-{}", node.index()))
            .spawn(move || udp_loop(udp_inner))
            .expect("spawn udp thread");
        threads.extend([accept, udp]);
        drop(threads);

        Arc::new(SocketTransport { inner })
    }
}

/// Accept connections until shutdown. The loop blocks in `accept()`, so a
/// peer's first frame is served the moment it connects;
/// [`SocketTransport::shutdown`] wakes it with a connection of its own.
fn accept_loop(listener: TcpListener, inner: Arc<SocketInner>) {
    let node = inner.endpoint.node;
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                inner.counters.tcp_accepts.inc();
                if let Ok(clone) = stream.try_clone() {
                    inner.accepted.lock().push(clone);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    // Shutdown drained `accepted` before the push above.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                let reader_inner = Arc::clone(&inner);
                let reader = std::thread::Builder::new()
                    .name(format!("orca-tcp-{}", node.index()))
                    .spawn(move || tcp_reader(stream, reader_inner));
                inner.threads.lock().extend(reader);
            }
            // Out of descriptors, or the like: do not spin on it.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

fn tcp_reader(stream: TcpStream, inner: Arc<SocketInner>) {
    let mut stream = BufReader::with_capacity(TCP_READ_BUFFER, stream);
    let mut len_buf = [0u8; 4];
    let mut header = [0u8; FRAME_HEADER_BYTES];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if stream.read_exact(&mut len_buf).is_err() {
            return; // peer closed or died
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if !(FRAME_HEADER_BYTES..=MAX_TCP_FRAME).contains(&len) {
            inner.counters.decode_errors.inc();
            return; // protocol corruption: drop the connection
        }
        // The payload is read into the buffer the frame will own.
        let mut payload = vec![0u8; len - FRAME_HEADER_BYTES];
        if stream.read_exact(&mut header).is_err() || stream.read_exact(&mut payload).is_err() {
            return;
        }
        match Frame::from_parts(&header, payload) {
            Ok(frame) => {
                inner.counters.tcp_frames_received.inc();
                inner.receive(frame);
            }
            Err(_) => {
                inner.counters.decode_errors.inc();
                return;
            }
        }
    }
}

fn udp_loop(inner: Arc<SocketInner>) {
    inner
        .udp
        .set_read_timeout(Some(POLL_INTERVAL))
        .expect("udp read timeout");
    let mut buf = vec![0u8; 65536];
    while !inner.shutdown.load(Ordering::SeqCst) {
        match inner.udp.recv_from(&mut buf) {
            // Shutdown's wake-up call.
            Ok(_) if inner.shutdown.load(Ordering::SeqCst) => return,
            Ok((len, _)) => match Frame::decode(&buf[..len]) {
                Ok(frame) => {
                    inner.counters.udp_datagrams_received.inc();
                    inner.receive(frame);
                }
                Err(_) => {
                    inner.counters.decode_errors.inc();
                }
            },
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// The real-socket [`Transport`] backend.
pub struct SocketTransport {
    inner: Arc<SocketInner>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("node", &self.inner.endpoint.node)
            .field("peers", &self.inner.peers)
            .finish()
    }
}

impl SocketTransport {
    /// Bind and start a transport from a static cluster configuration
    /// (`config.peers[config.node]` is the local bind address).
    pub fn start(config: SocketConfig) -> std::io::Result<Arc<SocketTransport>> {
        let addr = *config
            .peers
            .get(config.node.index())
            .ok_or_else(|| std::io::Error::other("node id outside peer list"))?;
        let bound = BoundSocket::bind(config.node, addr)?;
        Ok(bound.start(config.peers, None))
    }

    /// Build an `n`-node cluster of socket transports inside this process,
    /// all on loopback ephemeral ports and sharing one telemetry hub. Used
    /// by tests and the wall-clock benches.
    pub fn start_loopback_cluster(n: usize) -> std::io::Result<Vec<Arc<SocketTransport>>> {
        assert!(n > 0, "cluster needs at least one node");
        let mut bound = Vec::with_capacity(n);
        let mut peers = Vec::with_capacity(n);
        for index in 0..n {
            let socket = BoundSocket::bind(NodeId::from(index), "127.0.0.1:0".parse().unwrap())?;
            peers.push(socket.local_addr()?);
            bound.push(socket);
        }
        let telemetry = Telemetry::new(n);
        Ok(bound
            .into_iter()
            .map(|socket| socket.start(peers.clone(), Some(Arc::clone(&telemetry))))
            .collect())
    }

    /// The addresses of every node in the cluster, indexed by node id.
    pub fn peer_addrs(&self) -> &[SocketAddr] {
        &self.inner.peers
    }

    /// Mark `node` as confirmed dead (fed by the failure detector). The
    /// verdict is sticky — fail-stop semantics — and the cached connection
    /// to the corpse is torn down.
    pub fn confirm_dead(&self, node: NodeId) {
        if node.index() >= self.inner.peers.len() {
            return;
        }
        self.inner.confirmed_dead[node.index()].store(true, Ordering::SeqCst);
        let mut guard = self.inner.conns[node.index()].lock();
        if let Some(stream) = guard.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Simulate a local crash (in-process loopback clusters): sends go
    /// nowhere and incoming traffic is discarded, like the simulator's
    /// [`crate::network::Network::crash`] for this one node.
    pub fn crash_local(&self) {
        self.inner.local_crash.store(true, Ordering::SeqCst);
        let endpoint = &self.inner.endpoint;
        endpoint
            .telemetry
            .record_traced(endpoint.node.0, FlightKind::Crash, 0, 0);
    }

    /// Stop the background threads, close every socket, and join the
    /// threads (all but the calling one) before returning. Idempotent; also
    /// run when the last handle to the transport is dropped.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop sees the flag as soon as this connection wakes
        // it, and exits (closing the listener) without serving it; the
        // datagram loop as soon as a datagram to itself does.
        let _ = TcpStream::connect_timeout(&self.inner.wake_addr, CONNECT_TIMEOUT);
        let _ = self.inner.udp.send_to(&[], self.inner.wake_addr);
        let me = std::thread::current().id();
        let join = |thread: JoinHandle<()>| {
            if thread.thread().id() != me {
                let _ = thread.join();
            }
        };
        // The accept loop first: once it is gone, no reader starts.
        let accept = self.inner.threads.lock().remove(0);
        join(accept);
        for stream in self.inner.accepted.lock().drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for conn in &self.inner.conns {
            if let Some(stream) = conn.lock().take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        threads.into_iter().for_each(join);
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Socket
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        if node == self.inner.endpoint.node {
            return self.inner.local_crash.load(Ordering::SeqCst);
        }
        node.index() < self.inner.peers.len()
            && self.inner.confirmed_dead[node.index()].load(Ordering::SeqCst)
    }

    fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// This node's own copies arrive in place; a peer's go over TCP when
    /// reliable or too big for one datagram (a broadcast copy so sent
    /// counts as a fallback, and keeps its delivery class), else over UDP.
    fn transmit(&self, dst: NodeId, msg: NetMessage, reliable: bool) {
        if dst == self.inner.endpoint.node {
            return self.inner.arrive(msg);
        }
        let oversize = msg.payload.len() > MAX_UDP_PAYLOAD;
        if oversize && msg.delivery == Delivery::Broadcast {
            self.inner.counters.broadcast_tcp_fallbacks.inc();
        }
        let frame = Frame {
            src: msg.src,
            dst,
            port: msg.port,
            delivery: msg.delivery,
            payload: msg.payload,
        };
        if reliable || oversize {
            self.inner.tcp_send(dst, &frame);
        } else {
            self.inner.udp_send(dst, &frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkHandle;
    use crate::node::ports;

    fn handles(transports: &[Arc<SocketTransport>]) -> Vec<NetworkHandle> {
        transports
            .iter()
            .map(|t| NetworkHandle::from_transport(Arc::clone(t) as Arc<dyn Transport>))
            .collect()
    }

    #[test]
    fn tcp_point_to_point_round_trip() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        let rx = h[1].bind(ports::USER_BASE);
        h[0].send_reliable(NodeId(1), ports::USER_BASE, vec![1, 2, 3])
            .unwrap();
        let msg = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.src, NodeId(0));
        assert_eq!(msg.payload, vec![1, 2, 3]);
        assert_eq!(msg.delivery, Delivery::PointToPoint);
        // The cached connection is reused for the second send.
        h[0].send_reliable(NodeId(1), ports::USER_BASE, vec![4])
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            vec![4]
        );
    }

    #[test]
    fn udp_datagram_and_broadcast_reach_every_node() {
        let cluster = SocketTransport::start_loopback_cluster(3).unwrap();
        let h = handles(&cluster);
        let receivers: Vec<_> = h.iter().map(|h| h.bind(7)).collect();
        h[2].send(NodeId(0), 7, vec![9]).unwrap();
        assert_eq!(
            receivers[0]
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            vec![9]
        );
        h[1].broadcast(7, vec![5, 5]).unwrap();
        for rx in &receivers {
            let msg = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg.src, NodeId(1));
            assert_eq!(msg.delivery, Delivery::Broadcast);
            assert_eq!(msg.payload, vec![5, 5]);
        }
    }

    #[test]
    fn messages_before_bind_are_buffered() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        h[0].send_reliable(NodeId(1), 42, vec![7]).unwrap();
        // Give the frame time to arrive at node 1 before binding.
        std::thread::sleep(Duration::from_millis(200));
        let rx = h[1].bind(42);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            vec![7]
        );
    }

    #[test]
    fn oversize_broadcast_falls_back_to_tcp() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        let rx = h[1].bind(9);
        let big = vec![0xAB; MAX_UDP_PAYLOAD + 1];
        h[0].broadcast(9, big.clone()).unwrap();
        let msg = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.delivery, Delivery::Broadcast);
        assert_eq!(msg.payload, big);
        assert!(cluster[0].inner.counters.broadcast_tcp_fallbacks.get() >= 1);
    }

    #[test]
    fn frames_of_another_version_are_refused_not_misdecoded() {
        use crate::transport::{FrameError, FRAME_VERSION};
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        let rx = h[1].bind(11);
        // What a node built before the version bump (the previous RPC
        // envelope) would put on the wire.
        let mut old = Frame {
            src: NodeId(0),
            dst: NodeId(1),
            port: 11,
            delivery: Delivery::PointToPoint,
            payload: vec![1, 2, 3],
        }
        .encode();
        old[4] = FRAME_VERSION - 1;
        assert_eq!(
            Frame::decode(&old),
            Err(FrameError::BadVersion(FRAME_VERSION - 1))
        );
        let mut peer = TcpStream::connect(cluster[1].peer_addrs()[1]).unwrap();
        peer.write_all(&(old.len() as u32).to_be_bytes()).unwrap();
        peer.write_all(&old).unwrap();
        // The receiver counts the frame as undecodable and delivers nothing.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let errors = &cluster[1].inner.counters.decode_errors;
        while errors.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "frame never read");
            std::thread::yield_now();
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        // A current-version frame on a fresh connection still gets through.
        h[0].send_reliable(NodeId(1), 11, vec![4]).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            vec![4]
        );
    }

    #[test]
    fn shutdown_wakes_the_blocked_accept_loop_and_frees_the_port() {
        let cluster = SocketTransport::start_loopback_cluster(1).unwrap();
        let addr = cluster[0].peer_addrs()[0];
        cluster[0].shutdown();
        // The accept thread exits on the wake-up connection and drops the
        // listener; until it has, the bind below fails with AddrInUse.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while TcpListener::bind(addr).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "listener still bound after shutdown"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn confirmed_dead_peers_are_silent_drops() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        assert!(!h[0].is_crashed(NodeId(1)));
        cluster[0].confirm_dead(NodeId(1));
        assert!(h[0].is_crashed(NodeId(1)));
        let rx = h[1].bind(3);
        h[0].send_reliable(NodeId(1), 3, vec![1]).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn local_crash_discards_traffic_both_ways() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        let rx0 = h[0].bind(4);
        let rx1 = h[1].bind(4);
        cluster[1].crash_local();
        assert!(h[1].is_crashed(NodeId(1)));
        // Crashed node's sends go nowhere.
        h[1].send_reliable(NodeId(0), 4, vec![1]).unwrap();
        assert!(rx0.recv_timeout(Duration::from_millis(200)).is_err());
        // Traffic to the crashed node is discarded on arrival.
        h[0].send_reliable(NodeId(1), 4, vec![2]).unwrap();
        assert!(rx1.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn ephemeral_ports_are_unique_per_node_and_stats_fill_own_row() {
        let cluster = SocketTransport::start_loopback_cluster(2).unwrap();
        let h = handles(&cluster);
        let a = h[0].alloc_ephemeral_port();
        let b = h[0].alloc_ephemeral_port();
        assert_ne!(a, b);
        assert!(a >= ports::EPHEMERAL_BASE);
        let rx = h[1].bind(6);
        h[0].send_reliable(NodeId(1), 6, vec![1, 2]).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(h[0].stats().node(NodeId(0)).p2p_sent >= 1);
        assert!(h[1].stats().node(NodeId(1)).interrupts >= 1);
        // The rows live in the hub the cluster shares: node 1 reads node 0's.
        let shared = h[1].telemetry().registry().snapshot();
        assert!(shared.counters["net.node0.p2p_sent"] >= 1);
    }
}
