//! Schedule-driver seam: external control over message delivery.
//!
//! A model checker (crate `orca-mc`) wants to *choose* the order in which
//! in-flight messages are delivered instead of trusting the seeded fault
//! injector. Installing a [`SchedulerConfig`] on a [`crate::Network`] puts
//! the network into *held* mode: every message sent to a non-passthrough
//! port is parked in a network-wide pool instead of being enqueued, and the
//! schedule driver releases (or, for unreliable traffic, drops) held
//! messages one at a time via [`crate::Network::sched_release`] /
//! [`crate::Network::sched_drop`].
//!
//! Held messages are identified by a *canonical* [`MsgId`] — source,
//! destination, port lane and a per-lane stream sequence number — chosen so
//! the identity of "the third RPC request from node 1 to node 0" is stable
//! across repeated executions of the same program under the same schedule
//! prefix. Two things are deliberately excluded from the identity:
//!
//! * **Payload bytes.** An RPC request names its caller's reply mailbox,
//!   and which mailbox a call gets — a parked one or a fresh one, and in
//!   what order fresh ones were bound — depends on how the caller's
//!   threads raced, so payloads can differ between two behaviourally
//!   identical executions.
//! * **Raw ephemeral port numbers**, for the same reason: every ephemeral
//!   (RPC reply) port collapses onto one [`EPHEMERAL_LANE`] per (src, dst)
//!   pair.
//!
//! This makes a recorded schedule (a list of `MsgId`s plus crash points)
//! replayable: re-running the same scenario and applying the same choices
//! reproduces the same interleaving, provided each node issues its sends
//! from one logical thread per lane (mc scenarios run one worker process
//! per node for exactly this reason).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::message::NetMessage;
use crate::node::{ports, NodeId, Port};

/// The lane all ephemeral (RPC reply) ports collapse onto for identity
/// purposes: the ephemeral port *base* itself.
pub const EPHEMERAL_LANE: Port = ports::EPHEMERAL_BASE;

/// Canonical identity of a held message: which stream it belongs to and its
/// position in that stream. Ordered lexicographically, which gives the
/// schedule driver a deterministic enumeration order for pending messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Destination port, with every ephemeral port collapsed onto
    /// [`EPHEMERAL_LANE`].
    pub lane: Port,
    /// Position in the (src, dst, lane) stream, counted from 0 over the
    /// lifetime of the installed scheduler.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lane == EPHEMERAL_LANE {
            write!(
                f,
                "{}.{}.e.{}",
                self.src.index(),
                self.dst.index(),
                self.seq
            )
        } else {
            write!(
                f,
                "{}.{}.{}.{}",
                self.src.index(),
                self.dst.index(),
                self.lane,
                self.seq
            )
        }
    }
}

impl FromStr for MsgId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(format!("malformed MsgId {s:?} (want src.dst.lane.seq)"));
        }
        let field = |part: &str, what: &str| -> Result<u64, String> {
            part.parse::<u64>()
                .map_err(|_| format!("malformed {what} in MsgId {s:?}"))
        };
        let lane = if parts[2] == "e" {
            EPHEMERAL_LANE
        } else {
            field(parts[2], "lane")?
        };
        Ok(MsgId {
            src: NodeId(field(parts[0], "src")? as u16),
            dst: NodeId(field(parts[1], "dst")? as u16),
            lane,
            seq: field(parts[3], "seq")?,
        })
    }
}

/// The lane a destination port belongs to: itself for well-known ports,
/// [`EPHEMERAL_LANE`] for every ephemeral (reply) port.
pub fn lane_of(port: Port) -> Port {
    if port >= ports::EPHEMERAL_BASE {
        EPHEMERAL_LANE
    } else {
        port
    }
}

/// Configuration of an installed schedule driver.
#[derive(Debug, Clone, Default)]
pub struct SchedulerConfig {
    /// Ports whose traffic bypasses the held pool and is delivered
    /// immediately (and reliably — the fault injector is never consulted
    /// while a scheduler is installed). Typically the membership heartbeat
    /// port, whose periodic traffic would otherwise flood the choice tree.
    pub passthrough_ports: Vec<Port>,
}

impl SchedulerConfig {
    /// A scheduler that holds everything except membership heartbeats.
    pub fn default_for_mc() -> Self {
        SchedulerConfig {
            passthrough_ports: vec![ports::MEMBERSHIP],
        }
    }
}

/// Externally visible description of one held message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldDescriptor {
    /// Canonical identity (also the handle for release/drop).
    pub id: MsgId,
    /// Payload length in bytes.
    pub len: usize,
    /// True when the message was sent over the reliable primitive; reliable
    /// messages can be released but never dropped.
    pub reliable: bool,
}

pub(crate) struct HeldEntry {
    pub(crate) id: MsgId,
    pub(crate) msg: NetMessage,
    pub(crate) dst: NodeId,
    pub(crate) reliable: bool,
}

/// Internal state of an installed scheduler (lives inside the network core).
pub(crate) struct SchedState {
    pub(crate) passthrough: Vec<Port>,
    pub(crate) held: Vec<HeldEntry>,
    stream_seq: HashMap<(NodeId, NodeId, Port), u64>,
}

impl SchedState {
    pub(crate) fn new(config: SchedulerConfig) -> Self {
        SchedState {
            passthrough: config.passthrough_ports,
            held: Vec::new(),
            stream_seq: HashMap::new(),
        }
    }

    pub(crate) fn is_passthrough(&self, port: Port) -> bool {
        self.passthrough.contains(&port)
    }

    /// Park a message, assigning it the next identity of its stream.
    pub(crate) fn hold(&mut self, dst: NodeId, msg: NetMessage, reliable: bool) -> MsgId {
        let lane = lane_of(msg.port);
        let seq = self
            .stream_seq
            .entry((msg.src, dst, lane))
            .and_modify(|s| *s += 1)
            .or_insert(0);
        let id = MsgId {
            src: msg.src,
            dst,
            lane,
            seq: *seq,
        };
        self.held.push(HeldEntry {
            id,
            msg,
            dst,
            reliable,
        });
        id
    }

    /// Remove and return the held entry with the given identity.
    pub(crate) fn take(&mut self, id: MsgId) -> Option<HeldEntry> {
        let pos = self.held.iter().position(|e| e.id == id)?;
        Some(self.held.remove(pos))
    }

    /// Descriptors of all held messages, in canonical (sorted) order.
    pub(crate) fn descriptors(&self) -> Vec<HeldDescriptor> {
        let mut out: Vec<HeldDescriptor> = self
            .held
            .iter()
            .map(|e| HeldDescriptor {
                id: e.id,
                len: e.msg.payload.len(),
                reliable: e.reliable,
            })
            .collect();
        out.sort_by_key(|d| d.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgid_roundtrips_through_display() {
        let id = MsgId {
            src: NodeId(1),
            dst: NodeId(0),
            lane: 5,
            seq: 7,
        };
        assert_eq!(id, id.to_string().parse().unwrap());
        let eph = MsgId {
            src: NodeId(2),
            dst: NodeId(1),
            lane: EPHEMERAL_LANE,
            seq: 0,
        };
        assert_eq!(eph.to_string(), "2.1.e.0");
        assert_eq!(eph, eph.to_string().parse().unwrap());
        assert!("1.2.3".parse::<MsgId>().is_err());
        assert!("a.2.3.4".parse::<MsgId>().is_err());
    }

    #[test]
    fn lanes_collapse_ephemeral_ports() {
        assert_eq!(lane_of(ports::GROUP), ports::GROUP);
        assert_eq!(lane_of(ports::EPHEMERAL_BASE + 123), EPHEMERAL_LANE);
    }

    #[test]
    fn stream_sequence_numbers_count_per_lane() {
        let mut state = SchedState::new(SchedulerConfig::default_for_mc());
        let msg = |src: u16, port: Port| NetMessage {
            src: NodeId(src),
            port,
            delivery: crate::message::Delivery::PointToPoint,
            payload: vec![],
        };
        let a = state.hold(NodeId(1), msg(0, 5), true);
        let b = state.hold(NodeId(1), msg(0, 5), true);
        let c = state.hold(NodeId(1), msg(0, 6), true);
        assert_eq!((a.seq, b.seq, c.seq), (0, 1, 0));
        assert_eq!(state.descriptors().len(), 3);
        assert!(state.take(b).is_some());
        assert!(state.take(b).is_none());
    }
}
