//! The byte layout of the broadcast protocols' messages, pinned: every
//! variant with the hex bytes it encodes to (see the wire crate's
//! `tests/support/golden.rs` for the rules each table is checked against).

#[macro_use]
#[path = "../../wire/tests/support/golden.rs"]
mod golden;

use orca_amoeba::NodeId;
use orca_group::{BroadcastMethod, GroupMsg, MsgId};

golden_tests!(msg_ids, broadcast_methods, group_msgs);

fn id() -> MsgId {
    MsgId {
        origin: NodeId(3),
        origin_seq: 300,
    }
}

fn msg_ids() -> Vec<(MsgId, &'static str)> {
    vec![(id(), "03 ac 02")]
}

fn broadcast_methods() -> Vec<(BroadcastMethod, &'static str)> {
    vec![(BroadcastMethod::Pb, "00"), (BroadcastMethod::Bb, "01")]
}

fn group_msgs() -> Vec<(GroupMsg, &'static str)> {
    vec![
        (
            GroupMsg::RequestForBroadcast {
                id: id(),
                payload: vec![1, 2, 3],
            },
            "00 03 ac 02 03 01 02 03",
        ),
        (
            GroupMsg::SeqData {
                global_seq: 42,
                id: id(),
                payload: vec![0x80],
            },
            "01 2a 03 ac 02 01 80",
        ),
        (
            GroupMsg::BbData {
                id: id(),
                payload: vec![],
            },
            "02 03 ac 02 00",
        ),
        (
            GroupMsg::Accept {
                global_seq: 7,
                id: id(),
            },
            "03 07 03 ac 02",
        ),
        (GroupMsg::RetransmitRequest { from: 5, to: 9 }, "04 05 09"),
        (
            GroupMsg::NewSequencer {
                sequencer: NodeId(2),
                next_seq: 100,
            },
            "05 02 64",
        ),
        (GroupMsg::Status { highest_seq: 12 }, "06 0c"),
        (GroupMsg::Skip { from: 13, to: 15 }, "07 0d 0f"),
    ]
}
