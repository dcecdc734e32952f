//! Wire messages of the crash-recovery and membership subsystem.
//!
//! Node failure is detected by heartbeats: every node periodically
//! broadcasts a [`RecoveryMsg::Heartbeat`] on the membership port, and a
//! node that stays silent for a configured number of heartbeat intervals is
//! declared dead by every survivor independently. Because the failure
//! detector's view transitions are a pure function of which nodes fell
//! silent (the model is fail-stop: a dead node never returns), survivors
//! converge on the same epoch'd [`MembershipView`] without any agreement
//! protocol beyond the deterministic election rule of
//! `orca-amoeba::election` (lowest live node id coordinates).
//!
//! On top of the view, the runtime systems run a re-homing protocol for
//! objects whose authoritative copy lived on a dead node:
//!
//! 1. The coordinator (lowest live node) asks every survivor which
//!    secondary copies of orphaned objects it holds ([`RecoveryMsg::CopyQuery`]
//!    → [`RecoveryReply::Report`]).
//! 2. It promotes the freshest copy to primary ([`RecoveryMsg::Promote`]).
//! 3. It publishes the new home to every survivor ([`RecoveryMsg::ReHome`],
//!    with `lost = true` when no copy survived anywhere).
//! 4. It closes the epoch ([`RecoveryMsg::Done`]) so survivors know that
//!    any orphaned object *without* a published new home is lost.
//!
//! The vocabulary lives here, at the bottom of the stack, so the codecs are
//! property-tested together with every other wire type and the byte counts
//! the network statistics accumulate for recovery traffic are real.

use crate::{Decoder, Encoder, TraceId, Wire, WireError, WireResult};

/// One epoch of the group's membership: which nodes are believed alive.
///
/// The epoch is bumped every time a member is declared dead; because the
/// model is fail-stop (no rejoin), views of a higher epoch always describe
/// a subset of the members of lower epochs, and any two nodes that observed
/// the same set of failures hold the identical view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Number of membership changes observed so far (0 = initial view).
    pub epoch: u64,
    /// Node indices believed alive, in ascending order.
    pub alive: Vec<u16>,
}

impl MembershipView {
    /// The recovery coordinator of this view: the lowest live node.
    pub fn coordinator(&self) -> Option<u16> {
        self.alive.first().copied()
    }

    /// True if `node` is alive in this view.
    pub fn contains(&self, node: u16) -> bool {
        self.alive.binary_search(&node).is_ok()
    }
}

impl Wire for MembershipView {
    fn encode(&self, enc: &mut Encoder) {
        self.epoch.encode(enc);
        self.alive.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(MembershipView {
            epoch: Wire::decode(dec)?,
            alive: Wire::decode(dec)?,
        })
    }
}

/// One surviving copy of an orphaned object, as reported to the recovery
/// coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyInfo {
    /// Raw object id (the `u64` inside `ObjectId`).
    pub object: u64,
    /// Version (completed-write count) of the reporter's copy; the
    /// coordinator promotes the highest version it hears of.
    pub version: u64,
}

impl Wire for CopyInfo {
    fn encode(&self, enc: &mut Encoder) {
        self.object.encode(enc);
        self.version.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(CopyInfo {
            object: Wire::decode(dec)?,
            version: Wire::decode(dec)?,
        })
    }
}

/// Requests of the crash-recovery and membership protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryMsg {
    /// Periodic liveness announcement, broadcast on the membership port.
    Heartbeat {
        /// Sending node index.
        node: u16,
        /// The sender's current view epoch (diagnostic; views converge
        /// through silence detection, not through epoch gossip).
        epoch: u64,
    },
    /// A node announces the view it transitioned to (diagnostic traffic;
    /// every survivor detects the same failures independently).
    ViewChange {
        /// The announced view.
        view: MembershipView,
    },
    /// Coordinator → survivor: report your surviving copies of objects
    /// whose home node is in `dead`.
    CopyQuery {
        /// View epoch this recovery round serves.
        epoch: u64,
        /// Node indices declared dead in this view.
        dead: Vec<u16>,
    },
    /// Coordinator → chosen survivor: promote your copy of `object` to the
    /// new authoritative primary.
    Promote {
        /// View epoch this recovery round serves.
        epoch: u64,
        /// Raw object id.
        object: u64,
        /// Causal identity of this recovery round's coordination span
        /// ([`TraceId::NONE`] when untraced).
        trace: TraceId,
    },
    /// Coordinator → every survivor: `object` is now served by `new_home`
    /// (or permanently lost when `lost` is set — no copy survived).
    ReHome {
        /// View epoch this recovery round serves.
        epoch: u64,
        /// Raw object id.
        object: u64,
        /// Node index of the promoted new home.
        new_home: u16,
        /// True when no copy survived anywhere: the object is lost and
        /// operations on it must fail with an object-lost error.
        lost: bool,
        /// Causal identity of this recovery round's coordination span
        /// ([`TraceId::NONE`] when untraced).
        trace: TraceId,
    },
    /// Coordinator → every survivor: recovery for `epoch` is complete.
    /// Orphaned objects without a published re-homing are lost.
    Done {
        /// View epoch whose recovery round finished.
        epoch: u64,
    },
}

impl Wire for RecoveryMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RecoveryMsg::Heartbeat { node, epoch } => {
                enc.put_u8(0);
                node.encode(enc);
                epoch.encode(enc);
            }
            RecoveryMsg::ViewChange { view } => {
                enc.put_u8(1);
                view.encode(enc);
            }
            RecoveryMsg::CopyQuery { epoch, dead } => {
                enc.put_u8(2);
                epoch.encode(enc);
                dead.encode(enc);
            }
            RecoveryMsg::Promote {
                epoch,
                object,
                trace,
            } => {
                enc.put_u8(3);
                epoch.encode(enc);
                object.encode(enc);
                trace.encode(enc);
            }
            RecoveryMsg::ReHome {
                epoch,
                object,
                new_home,
                lost,
                trace,
            } => {
                enc.put_u8(5);
                epoch.encode(enc);
                object.encode(enc);
                new_home.encode(enc);
                lost.encode(enc);
                trace.encode(enc);
            }
            RecoveryMsg::Done { epoch } => {
                enc.put_u8(6);
                epoch.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RecoveryMsg::Heartbeat {
                node: Wire::decode(dec)?,
                epoch: Wire::decode(dec)?,
            }),
            1 => Ok(RecoveryMsg::ViewChange {
                view: Wire::decode(dec)?,
            }),
            2 => Ok(RecoveryMsg::CopyQuery {
                epoch: Wire::decode(dec)?,
                dead: Wire::decode(dec)?,
            }),
            3 => Ok(RecoveryMsg::Promote {
                epoch: Wire::decode(dec)?,
                object: Wire::decode(dec)?,
                trace: Wire::decode(dec)?,
            }),
            5 => Ok(RecoveryMsg::ReHome {
                epoch: Wire::decode(dec)?,
                object: Wire::decode(dec)?,
                new_home: Wire::decode(dec)?,
                lost: Wire::decode(dec)?,
                trace: Wire::decode(dec)?,
            }),
            6 => Ok(RecoveryMsg::Done {
                epoch: Wire::decode(dec)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "RecoveryMsg",
                tag: u64::from(tag),
            }),
        }
    }
}

/// Replies of the crash-recovery protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryReply {
    /// Acknowledgement with no payload.
    Ack,
    /// Surviving copies held by the replying node (reply to
    /// [`RecoveryMsg::CopyQuery`]).
    Report(Vec<CopyInfo>),
    /// The request failed.
    Error(String),
}

impl Wire for RecoveryReply {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RecoveryReply::Ack => enc.put_u8(0),
            RecoveryReply::Report(copies) => {
                enc.put_u8(1);
                copies.encode(enc);
            }
            RecoveryReply::Error(msg) => {
                enc.put_u8(2);
                msg.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RecoveryReply::Ack),
            1 => Ok(RecoveryReply::Report(Wire::decode(dec)?)),
            2 => Ok(RecoveryReply::Error(Wire::decode(dec)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "RecoveryReply",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> MembershipView {
        MembershipView {
            epoch: 3,
            alive: vec![0, 2, 3],
        }
    }

    #[test]
    fn view_coordinator_and_contains() {
        let view = view();
        assert_eq!(view.coordinator(), Some(0));
        assert!(view.contains(2));
        assert!(!view.contains(1));
        let empty = MembershipView {
            epoch: 9,
            alive: vec![],
        };
        assert_eq!(empty.coordinator(), None);
    }

    #[test]
    fn all_requests_round_trip() {
        let msgs = vec![
            RecoveryMsg::Heartbeat { node: 3, epoch: 1 },
            RecoveryMsg::ViewChange { view: view() },
            RecoveryMsg::CopyQuery {
                epoch: 2,
                dead: vec![1, 4],
            },
            RecoveryMsg::Promote {
                epoch: 2,
                object: (5u64 << 48) | 7,
                trace: TraceId::mint(0, 1),
            },
            RecoveryMsg::ReHome {
                epoch: 2,
                object: 12,
                new_home: 2,
                lost: false,
                trace: TraceId::NONE,
            },
            RecoveryMsg::Done { epoch: 2 },
        ];
        for msg in msgs {
            assert_eq!(RecoveryMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn all_replies_round_trip() {
        let replies = vec![
            RecoveryReply::Ack,
            RecoveryReply::Report(vec![
                CopyInfo {
                    object: 7,
                    version: 3,
                },
                CopyInfo {
                    object: 9,
                    version: 0,
                },
            ]),
            RecoveryReply::Error("nope".into()),
        ];
        for reply in replies {
            assert_eq!(RecoveryReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_messages_are_errors() {
        let bytes = RecoveryMsg::ViewChange { view: view() }.to_bytes();
        assert!(RecoveryMsg::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RecoveryReply::from_bytes(&[0xff]).is_err());
    }
}
