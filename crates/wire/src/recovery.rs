//! Wire messages of the crash-recovery and membership subsystem.
//!
//! Node failure is detected by heartbeats: every node periodically
//! broadcasts a [`RecoveryMsg::Heartbeat`] on the membership port, and a
//! node that stays silent for a configured number of heartbeat intervals is
//! declared dead by every survivor independently. Because the failure
//! detector's view transitions are a pure function of which nodes fell
//! silent (the model is fail-stop: a dead node never returns), survivors
//! converge on the same epoch'd view without any agreement protocol beyond
//! the deterministic election rule of `orca-amoeba::election` (lowest live
//! node id coordinates). Views never travel: each node derives its own.
//!
//! On top of the view, the runtime systems re-home objects whose
//! authoritative copy lived on a dead node; that protocol is part of the
//! regime vocabulary ([`crate::regime`]: holdings survey, promotion of the
//! freshest mirror of a dead owner's slot).
//!
//! The vocabulary lives here, at the bottom of the stack, so the codecs are
//! property-tested together with every other wire type and the byte counts
//! the network statistics accumulate for membership traffic are real.

use crate::wire_type;

wire_type! {
    /// Requests of the membership protocol.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RecoveryMsg {
        /// Periodic liveness announcement, broadcast on the membership port.
        HEARTBEAT_TAG = 0 => Heartbeat {
            /// Sending node index.
            node: u16,
            /// The sender's current view epoch (diagnostic; views converge
            /// through silence detection, not through epoch gossip).
            epoch: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wire;

    #[test]
    fn all_requests_round_trip() {
        let beat = RecoveryMsg::Heartbeat { node: 3, epoch: 1 };
        assert_eq!(RecoveryMsg::from_bytes(&beat.to_bytes()).unwrap(), beat);
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
