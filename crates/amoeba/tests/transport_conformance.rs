//! Transport-agnostic conformance suite.
//!
//! The simulated network delivers messages synchronously inside the
//! sender's call, so sim-only tests may legitimately `try_recv` right after
//! a send (see `tests/determinism.rs`). Code that must work over *any*
//! transport cannot assume that: over sockets a frame crosses reader
//! threads and arrives microseconds-to-milliseconds later. Every scenario
//! here therefore uses bounded blocking receives and runs unchanged against
//! both backends, pinning down the contract the higher layers (RPC, group,
//! RTS) are written against:
//!
//! * reliable unicast delivers exactly the bytes sent, tagged with the
//!   true source and the addressed port;
//! * self-sends loop back;
//! * broadcast reaches every node including the sender;
//! * payloads beyond a UDP datagram still arrive through `send` (the
//!   socket backend falls back to TCP framing);
//! * ephemeral ports are distinct per node;
//! * healthy nodes are never reported crashed, and the sender's own
//!   statistics row records its sends;
//! * a fixed mix of sends is counted identically: the same statistics on
//!   every node's row, one `Send` flight event per send and one `Deliver`
//!   per delivered copy.

use std::time::Duration;

use orca_amoeba::network::{Network, NetworkHandle, PortReceiver};
use orca_amoeba::node::{ports, NodeId};
use orca_amoeba::stats::NodeStatsSnapshot;
use orca_amoeba::transport::{SocketTransport, MAX_UDP_PAYLOAD};
use orca_telemetry::FlightKind;

const NODES: usize = 3;
const RECV_WAIT: Duration = Duration::from_secs(10);

/// Both backends behind one setup seam. The owner keeps the transport
/// alive for the duration of a scenario.
enum Cluster {
    Sim(Network),
    Socket(Vec<std::sync::Arc<SocketTransport>>),
}

impl Cluster {
    fn sim() -> Cluster {
        Cluster::Sim(Network::reliable(NODES))
    }

    fn socket() -> Cluster {
        Cluster::Socket(SocketTransport::start_loopback_cluster(NODES).expect("loopback cluster"))
    }

    fn handle(&self, node: usize) -> NetworkHandle {
        match self {
            Cluster::Sim(net) => net.handle(NodeId(node as u16)),
            Cluster::Socket(transports) => {
                NetworkHandle::from_transport(std::sync::Arc::clone(&transports[node])
                    as std::sync::Arc<dyn orca_amoeba::Transport>)
            }
        }
    }
}

fn both_backends(scenario: impl Fn(&Cluster)) {
    scenario(&Cluster::sim());
    scenario(&Cluster::socket());
}

fn recv_payload(rx: &PortReceiver) -> (NodeId, Vec<u8>) {
    let msg = rx.recv_timeout(RECV_WAIT).expect("message within deadline");
    (msg.src, msg.payload)
}

#[test]
fn reliable_unicast_delivers_bytes_source_and_port() {
    both_backends(|cluster| {
        let rx = cluster.handle(1).bind(ports::USER_BASE + 7);
        cluster
            .handle(0)
            .send_reliable(NodeId(1), ports::USER_BASE + 7, b"payload".to_vec())
            .unwrap();
        let (src, payload) = recv_payload(&rx);
        assert_eq!(src, NodeId(0));
        assert_eq!(payload, b"payload");
        assert_eq!(rx.port(), ports::USER_BASE + 7);
    });
}

#[test]
fn unreliable_send_delivers_on_a_healthy_network() {
    both_backends(|cluster| {
        let rx = cluster.handle(2).bind(ports::USER_BASE);
        for i in 0..5u8 {
            cluster
                .handle(0)
                .send(NodeId(2), ports::USER_BASE, vec![i])
                .unwrap();
        }
        // Loopback UDP with an attentive reader does not drop; both
        // backends must hand over all five datagrams, in order per sender.
        for i in 0..5u8 {
            let (src, payload) = recv_payload(&rx);
            assert_eq!((src, payload), (NodeId(0), vec![i]));
        }
    });
}

#[test]
fn self_send_loops_back() {
    both_backends(|cluster| {
        let handle = cluster.handle(1);
        let rx = handle.bind(ports::USER_BASE + 1);
        handle
            .send_reliable(NodeId(1), ports::USER_BASE + 1, vec![42])
            .unwrap();
        assert_eq!(recv_payload(&rx), (NodeId(1), vec![42]));
    });
}

#[test]
fn broadcast_reaches_every_node_including_sender() {
    both_backends(|cluster| {
        let receivers: Vec<_> = (0..NODES)
            .map(|n| cluster.handle(n).bind(ports::USER_BASE + 2))
            .collect();
        cluster
            .handle(1)
            .broadcast(ports::USER_BASE + 2, b"all".to_vec())
            .unwrap();
        for rx in &receivers {
            assert_eq!(recv_payload(rx), (NodeId(1), b"all".to_vec()));
        }
    });
}

#[test]
fn oversized_payload_survives_unreliable_send() {
    both_backends(|cluster| {
        // Larger than one UDP datagram: the socket backend must fall back
        // to TCP framing, the simulator just delivers it.
        let big: Vec<u8> = (0..80_000usize).map(|i| (i % 251) as u8).collect();
        let rx = cluster.handle(1).bind(ports::USER_BASE + 3);
        cluster
            .handle(0)
            .send(NodeId(1), ports::USER_BASE + 3, big.clone())
            .unwrap();
        assert_eq!(recv_payload(&rx), (NodeId(0), big));
    });
}

#[test]
fn ephemeral_ports_are_distinct_per_node() {
    both_backends(|cluster| {
        let handle = cluster.handle(0);
        let a = handle.alloc_ephemeral_port();
        let b = handle.alloc_ephemeral_port();
        assert_ne!(a, b);
        assert!(a >= ports::EPHEMERAL_BASE && b >= ports::EPHEMERAL_BASE);
    });
}

#[test]
fn healthy_nodes_are_not_reported_crashed_and_sends_are_counted() {
    both_backends(|cluster| {
        let handle = cluster.handle(0);
        for n in 0..NODES {
            assert!(!handle.is_crashed(NodeId(n as u16)));
        }
        let rx = cluster.handle(1).bind(ports::USER_BASE + 4);
        handle
            .send_reliable(NodeId(1), ports::USER_BASE + 4, vec![1])
            .unwrap();
        let _ = recv_payload(&rx);
        // The sender's own statistics row must have recorded the send on
        // both backends (the socket backend only fills its own row).
        assert!(handle.stats().node(NodeId(0)).p2p_sent >= 1);
    });
}

#[test]
fn one_mix_of_sends_is_counted_alike_on_both_backends() {
    both_backends(|cluster| {
        let port = ports::USER_BASE + 5;
        let handles: Vec<_> = (0..NODES).map(|n| cluster.handle(n)).collect();
        let receivers: Vec<_> = handles.iter().map(|h| h.bind(port)).collect();
        let oversize = MAX_UDP_PAYLOAD + 1;
        handles[0]
            .send_reliable(NodeId(1), port, vec![1; 10])
            .unwrap();
        handles[0]
            .send_reliable(NodeId(0), port, vec![2; 5])
            .unwrap();
        handles[0].send(NodeId(2), port, vec![3; 7]).unwrap();
        handles[1].send(NodeId(1), port, vec![4; 3]).unwrap();
        handles[2].broadcast(port, vec![5; 20]).unwrap();
        handles[1].send(NodeId(0), port, vec![6; oversize]).unwrap();
        // Copies delivered: node 0 gets three, node 1 three, node 2 two.
        for (rx, copies) in receivers.iter().zip([3, 3, 2]) {
            for _ in 0..copies {
                recv_payload(rx);
            }
        }
        // Wire bytes are payload + 32; a packet carries 1,480 of them.
        let row = |p2p, broadcasts, sent: u64, packets, interrupts, received| NodeStatsSnapshot {
            p2p_sent: p2p,
            broadcasts_sent: broadcasts,
            bytes_sent: sent,
            packets_sent: packets,
            interrupts,
            bytes_received: received,
            dropped: 0,
        };
        let big = oversize as u64 + 32;
        let expected = [
            row(3, 0, 42 + 37 + 39, 3, 3, 37 + 52 + big),
            row(2, 0, 35 + big, 1 + big.div_ceil(1480), 3, 42 + 35 + 52),
            row(0, 1, 52, 1, 2, 39 + 52),
        ];
        assert_eq!(handles[0].stats().per_node, expected);

        let events = handles[0].telemetry().flight_events();
        let count = |node: usize, kind| {
            let of =
                |e: &&orca_telemetry::FlightEvent| usize::from(e.node) == node && e.kind == kind;
            events.iter().filter(of).count()
        };
        let sends: Vec<_> = (0..NODES).map(|n| count(n, FlightKind::Send)).collect();
        let delivers: Vec<_> = (0..NODES).map(|n| count(n, FlightKind::Deliver)).collect();
        assert_eq!(sends, [3, 2, 1]);
        assert_eq!(delivers, [3, 3, 2]);
    });
}
