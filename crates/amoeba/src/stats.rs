//! Per-node network statistics.
//!
//! The statistics collected here are the raw measurements behind two parts of
//! the reproduction:
//!
//! * the PB-vs-BB comparison of §3.1 (bytes on the wire and interrupts per
//!   member), and
//! * the performance model in `orca-perf`, which converts per-node message
//!   and byte counts into estimated protocol-handling time on the paper's
//!   hardware.
//!
//! Bandwidth is accounted the way an Ethernet would see it: a broadcast puts
//! the message on the shared medium once, regardless of how many nodes
//! receive it, while every point-to-point transmission is counted once.
//! An *interrupt* is one message copy delivered to one node.

use orca_telemetry::Registry;

use crate::node::NodeId;

orca_telemetry::counter_set! {
    /// One node's counters, `net.node<i>.<field>` in the registry.
    pub struct NodeCounters => NodeStatsSnapshot {
        /// Point-to-point messages this node transmitted.
        p2p_sent,
        /// Broadcast messages this node transmitted.
        broadcasts_sent,
        /// Bytes this node placed on the shared medium (headers included).
        bytes_sent,
        /// Packets this node placed on the shared medium (after fragmentation).
        packets_sent,
        /// Message copies delivered to this node (== interrupts taken).
        interrupts,
        /// Bytes delivered to this node.
        bytes_received,
        /// Copies destined to this node that the fault injector dropped.
        dropped,
    }
}

/// Live statistics for a whole network (one [`NodeCounters`] per node).
///
/// Every row is a set of registry handles, so two `NetStats` built on one
/// registry share their counters: the transports of a loopback cluster,
/// each recording only its own node's row, fill in one table between them.
#[derive(Debug)]
pub struct NetStats {
    nodes: Vec<NodeCounters>,
}

impl NetStats {
    /// Resolve the counters of `nodes` nodes in `registry`.
    pub fn new(registry: &Registry, nodes: usize) -> Self {
        NetStats {
            nodes: (0..nodes)
                .map(|index| NodeCounters::new(registry, &format!("net.node{index}")))
                .collect(),
        }
    }

    /// Record a point-to-point transmission by `src` of `bytes` wire bytes in
    /// `packets` packets.
    pub fn record_p2p_send(&self, src: NodeId, bytes: usize, packets: usize) {
        let c = &self.nodes[src.index()];
        c.p2p_sent.inc();
        c.bytes_sent.add(bytes as u64);
        c.packets_sent.add(packets as u64);
    }

    /// Record a broadcast transmission by `src`.
    pub fn record_broadcast_send(&self, src: NodeId, bytes: usize, packets: usize) {
        let c = &self.nodes[src.index()];
        c.broadcasts_sent.inc();
        c.bytes_sent.add(bytes as u64);
        c.packets_sent.add(packets as u64);
    }

    /// Record one message copy delivered to `dst`.
    pub fn record_delivery(&self, dst: NodeId, bytes: usize) {
        let c = &self.nodes[dst.index()];
        c.interrupts.inc();
        c.bytes_received.add(bytes as u64);
    }

    /// Record one message copy destined to `dst` that was dropped.
    pub fn record_drop(&self, dst: NodeId) {
        self.nodes[dst.index()].dropped.inc();
    }

    /// Take a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            per_node: self.nodes.iter().map(NodeCounters::snapshot).collect(),
        }
    }
}

impl NodeStatsSnapshot {
    /// Element-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &NodeStatsSnapshot) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            p2p_sent: self.p2p_sent.saturating_sub(earlier.p2p_sent),
            broadcasts_sent: self.broadcasts_sent.saturating_sub(earlier.broadcasts_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            packets_sent: self.packets_sent.saturating_sub(earlier.packets_sent),
            interrupts: self.interrupts.saturating_sub(earlier.interrupts),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            dropped: self.dropped.saturating_sub(earlier.dropped),
        }
    }

    /// Total messages sent by this node (point-to-point + broadcast).
    pub fn messages_sent(&self) -> u64 {
        self.p2p_sent + self.broadcasts_sent
    }
}

/// Point-in-time copy of a whole network's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// One entry per node, indexed by `NodeId::index()`.
    pub per_node: Vec<NodeStatsSnapshot>,
}

impl NetStatsSnapshot {
    /// Per-node difference `self - earlier`.
    pub fn since(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            per_node: self
                .per_node
                .iter()
                .zip(earlier.per_node.iter())
                .map(|(now, then)| now.since(then))
                .collect(),
        }
    }

    /// Total bytes placed on the shared medium by all nodes.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_node.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total messages transmitted (point-to-point plus broadcasts).
    pub fn total_messages(&self) -> u64 {
        self.per_node.iter().map(|n| n.messages_sent()).sum()
    }

    /// Total interrupts taken across all nodes.
    pub fn total_interrupts(&self) -> u64 {
        self.per_node.iter().map(|n| n.interrupts).sum()
    }

    /// Total copies dropped by fault injection.
    pub fn total_dropped(&self) -> u64 {
        self.per_node.iter().map(|n| n.dropped).sum()
    }

    /// Statistics of one node.
    pub fn node(&self, node: NodeId) -> NodeStatsSnapshot {
        self.per_node[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let stats = NetStats::new(&Registry::new(), 3);
        stats.record_p2p_send(NodeId(0), 100, 1);
        stats.record_broadcast_send(NodeId(1), 2000, 2);
        stats.record_delivery(NodeId(2), 100);
        stats.record_delivery(NodeId(2), 2000);
        stats.record_drop(NodeId(0));

        let snap = stats.snapshot();
        assert_eq!(snap.node(NodeId(0)).p2p_sent, 1);
        assert_eq!(snap.node(NodeId(1)).broadcasts_sent, 1);
        assert_eq!(snap.node(NodeId(1)).packets_sent, 2);
        assert_eq!(snap.node(NodeId(2)).interrupts, 2);
        assert_eq!(snap.node(NodeId(2)).bytes_received, 2100);
        assert_eq!(snap.total_wire_bytes(), 2100);
        assert_eq!(snap.total_messages(), 2);
        assert_eq!(snap.total_interrupts(), 2);
        assert_eq!(snap.total_dropped(), 1);
    }

    #[test]
    fn since_computes_difference() {
        let stats = NetStats::new(&Registry::new(), 1);
        stats.record_p2p_send(NodeId(0), 10, 1);
        let before = stats.snapshot();
        stats.record_p2p_send(NodeId(0), 30, 1);
        stats.record_delivery(NodeId(0), 30);
        let after = stats.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.node(NodeId(0)).p2p_sent, 1);
        assert_eq!(delta.node(NodeId(0)).bytes_sent, 30);
        assert_eq!(delta.node(NodeId(0)).interrupts, 1);
    }
}
