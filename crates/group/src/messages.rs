//! Wire messages of the PB/BB broadcast protocols.

use orca_amoeba::NodeId;
use orca_wire::wire_type;

wire_type! {
    /// Unique identifier of an application message, assigned by its origin.
    ///
    /// The pair (origin node, per-origin sequence number) identifies a message
    /// independently of the global sequence number the sequencer later assigns,
    /// which is what makes retransmitted requests idempotent at the sequencer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct MsgId {
        /// Node that created the message.
        pub origin: NodeId,
        /// Per-origin sequence number (starts at 1).
        pub origin_seq: u64,
    }
}

wire_type! {
    /// Which of the two protocols carried a message (recorded for statistics and
    /// exposed to the benchmarks that reproduce §3.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BroadcastMethod {
        /// Point-to-point to the sequencer, then broadcast by the sequencer.
        PB_TAG = 0 => Pb,
        /// Broadcast by the origin, then a short Accept broadcast by the
        /// sequencer.
        BB_TAG = 1 => Bb,
    }
}

wire_type! {
    /// Protocol messages exchanged on the group port.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum GroupMsg {
        /// PB, step 1: origin → sequencer (point-to-point). Carries the full
        /// payload; the sequencer will assign a global sequence number and
        /// broadcast it as [`GroupMsg::SeqData`].
        REQUEST_TAG = 0 => RequestForBroadcast {
            /// Message identity assigned by the origin.
            id: MsgId,
            /// Application payload.
            payload: Vec<u8>,
        },
        /// PB, step 2 (and retransmission payload): sequencer → all. Carries the
        /// global sequence number and the full payload.
        SEQ_DATA_TAG = 1 => SeqData {
            /// Global total-order position (starts at 1).
            global_seq: u64,
            /// Message identity assigned by the origin.
            id: MsgId,
            /// Application payload.
            payload: Vec<u8>,
        },
        /// BB, step 1: origin → all (broadcast). Carries the full payload but no
        /// global sequence number yet; the message is only *official* once the
        /// matching [`GroupMsg::Accept`] arrives.
        BB_DATA_TAG = 2 => BbData {
            /// Message identity assigned by the origin.
            id: MsgId,
            /// Application payload.
            payload: Vec<u8>,
        },
        /// BB, step 2: sequencer → all (broadcast). Very short: it binds an
        /// already-broadcast [`GroupMsg::BbData`] to a global sequence number.
        ACCEPT_TAG = 3 => Accept {
            /// Global total-order position.
            global_seq: u64,
            /// Identity of the BbData message being accepted.
            id: MsgId,
        },
        /// Member → sequencer: "I am missing global sequence numbers
        /// `from..=to`, please retransmit them from your history buffer."
        RETRANSMIT_REQUEST_TAG = 4 => RetransmitRequest {
            /// First missing sequence number.
            from: u64,
            /// Last missing sequence number.
            to: u64,
        },
        /// Announcement by a newly elected sequencer: global sequence numbers
        /// resume from `next_seq`.
        NEW_SEQUENCER_TAG = 5 => NewSequencer {
            /// Node that took over as sequencer.
            sequencer: NodeId,
            /// Next sequence number the new sequencer will assign.
            next_seq: u64,
        },
        /// Periodic status broadcast by the sequencer carrying the highest
        /// sequence number assigned so far. Members that have not yet delivered
        /// up to that number know they missed a broadcast and can ask for a
        /// retransmission even when no further traffic arrives.
        STATUS_TAG = 6 => Status {
            /// Highest global sequence number assigned so far.
            highest_seq: u64,
        },
        /// Sequencer → member: the global sequence numbers `from..=to` were
        /// abandoned in a sequencer change-over (the failed sequencer announced
        /// them but no survivor ever received the data); deliver nothing for
        /// them and advance past. Sent in response to a retransmission request
        /// for numbers absent from every surviving history.
        SKIP_TAG = 7 => Skip {
            /// First abandoned sequence number.
            from: u64,
            /// Last abandoned sequence number.
            to: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    fn sample_id() -> MsgId {
        MsgId {
            origin: NodeId(3),
            origin_seq: 17,
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let messages = vec![
            GroupMsg::RequestForBroadcast {
                id: sample_id(),
                payload: vec![1, 2, 3],
            },
            GroupMsg::SeqData {
                global_seq: 42,
                id: sample_id(),
                payload: vec![9; 100],
            },
            GroupMsg::BbData {
                id: sample_id(),
                payload: vec![],
            },
            GroupMsg::Accept {
                global_seq: 7,
                id: sample_id(),
            },
            GroupMsg::RetransmitRequest { from: 5, to: 9 },
            GroupMsg::NewSequencer {
                sequencer: NodeId(2),
                next_seq: 100,
            },
            GroupMsg::Status { highest_seq: 12 },
            GroupMsg::Skip { from: 13, to: 15 },
        ];
        for msg in messages {
            assert_eq!(GroupMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn accept_is_much_smaller_than_data() {
        let payload = vec![0u8; 4000];
        let data = GroupMsg::BbData {
            id: sample_id(),
            payload: payload.clone(),
        };
        let accept = GroupMsg::Accept {
            global_seq: 1,
            id: sample_id(),
        };
        assert!(accept.encoded_len() < 20);
        assert!(data.encoded_len() > payload.len());
    }

    #[test]
    fn method_round_trip() {
        for m in [BroadcastMethod::Pb, BroadcastMethod::Bb] {
            assert_eq!(BroadcastMethod::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }
}
