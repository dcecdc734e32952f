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
//! On top of the view, the runtime systems re-home objects whose
//! authoritative copy lived on a dead node; that protocol is part of the
//! regime vocabulary ([`crate::regime`]: holdings survey, backup promotion,
//! regeneration from a mirror).
//!
//! The vocabulary lives here, at the bottom of the stack, so the codecs are
//! property-tested together with every other wire type and the byte counts
//! the network statistics accumulate for membership traffic are real.

use crate::{Decoder, Encoder, Wire, WireError, WireResult};

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

/// Requests of the membership protocol.
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
}

impl Wire for RecoveryMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RecoveryMsg::Heartbeat { node, epoch } => {
                enc.put_u8(0);
                node.encode(enc);
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
            tag => Err(WireError::InvalidTag {
                type_name: "RecoveryMsg",
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
        let beat = RecoveryMsg::Heartbeat { node: 3, epoch: 1 };
        assert_eq!(RecoveryMsg::from_bytes(&beat.to_bytes()).unwrap(), beat);
        let view = view();
        assert_eq!(MembershipView::from_bytes(&view.to_bytes()).unwrap(), view);
    }

    #[test]
    fn truncated_messages_are_errors() {
        let bytes = RecoveryMsg::Heartbeat {
            node: 3,
            epoch: 300,
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(RecoveryMsg::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(RecoveryMsg::from_bytes(&[0xff]).is_err());
    }
}
