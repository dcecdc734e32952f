//! The byte layout of every message the wire crate declares, pinned: each
//! table lists every variant (a trailing option `None` and `Some`, a tail
//! empty and not) with the hex bytes it encodes to. See `support/golden.rs`
//! for the two rules each table is checked against.

#[macro_use]
#[path = "support/golden.rs"]
mod golden;

use orca_wire::{
    BatchOutcome, BatchOutcomes, DedupWindow, Holdings, LeaseGrant, OpStamp, RecoveryMsg,
    RegimeKind, RegimeMsg, RegimeReply, RegimeTable, Wire, WireError,
};

golden_tests!(
    regime_kinds,
    regime_tables,
    regime_msgs,
    holdings,
    regime_replies,
    recovery_msgs,
    lease_grants,
    op_stamps,
);

fn stamp() -> OpStamp {
    OpStamp {
        origin: 2,
        seq: 300,
    }
}

fn window() -> DedupWindow {
    let mut dedup = DedupWindow::new();
    dedup.record(OpStamp { origin: 3, seq: 11 }, vec![1, 2]);
    dedup
}

fn grant() -> LeaseGrant {
    LeaseGrant {
        object: 9,
        epoch: 3,
        seq: 4,
        valid_ms: 150,
    }
}

fn sharded_table() -> RegimeTable {
    RegimeTable {
        object: (3 << 48) | 17,
        type_name: "orca.KvTable".into(),
        epoch: 5,
        regime: RegimeKind::Sharded,
        owners: vec![0, 1, 2, 1],
        mirrors: vec![],
    }
}

fn replicated_table() -> RegimeTable {
    RegimeTable {
        object: 9,
        type_name: "orca.Int".into(),
        epoch: 1,
        regime: RegimeKind::Replicated,
        owners: vec![2],
        mirrors: vec![0, 1],
    }
}

fn full_holdings() -> Holdings {
    Holdings {
        type_name: "orca.KvTable".into(),
        slots: vec![(0, 4, 9, RegimeKind::Sharded, vec![1, 3])],
        mirrors: vec![(Some(1), 4, 3), (Some(1), 3, 40), (None, 4, 17)],
    }
}

fn regime_kinds() -> Vec<(RegimeKind, &'static str)> {
    vec![
        (RegimeKind::Replicated, "00"),
        (RegimeKind::Primary, "01"),
        (RegimeKind::Sharded, "02"),
    ]
}

fn regime_tables() -> Vec<(RegimeTable, &'static str)> {
    vec![(sharded_table(), "91 80 80 80 80 80 c0 01 0c 6f 72 63 61 2e 4b 76 54 61 62 6c 65 05 02 04 00 01 02 01 00"), (replicated_table(), "09 08 6f 72 63 61 2e 49 6e 74 01 00 01 02 02 00 01")]
}

fn op(stamp: Option<OpStamp>, op: Vec<u8>) -> RegimeMsg {
    RegimeMsg::Op {
        object: 9,
        epoch: 2,
        partition: 3,
        op,
        stamp,
    }
}

fn mirror(partition: Option<u32>) -> RegimeMsg {
    RegimeMsg::Mirror {
        object: 9,
        epoch: 3,
        partition,
        type_name: "orca.Int".into(),
        state: vec![7],
        seq: 12,
        dedup: DedupWindow::new(),
        lease: Some(150),
    }
}

fn fetch_mirror(partition: Option<u32>, have: Option<u64>) -> RegimeMsg {
    RegimeMsg::FetchMirror {
        object: 9,
        epoch: 3,
        partition,
        have,
    }
}

fn drop_copies(partition: Option<u32>, written: Option<u64>) -> RegimeMsg {
    RegimeMsg::DropCopies {
        object: 9,
        epoch: 3,
        partition,
        written,
    }
}

fn held_update(partition: Option<u32>) -> RegimeMsg {
    RegimeMsg::Update {
        object: 9,
        epoch: 3,
        partition,
        seq: 14,
        held: true,
        ops: vec![vec![1, 2], vec![], vec![0x80, 0xff]],
        stamped: None,
        lease: None,
    }
}

fn unlock(partition: Option<u32>) -> RegimeMsg {
    RegimeMsg::Unlock {
        object: 9,
        epoch: 3,
        partition,
        seq: 13,
    }
}

fn write_through(op: Vec<u8>) -> RegimeMsg {
    RegimeMsg::WriteThrough {
        object: 9,
        epoch: 3,
        partition: 0,
        op,
        stamp: Some(stamp()),
    }
}

fn regime_msgs() -> Vec<(RegimeMsg, &'static str)> {
    vec![
        (RegimeMsg::Route { object: 9 }, "00 09"),
        (op(None, vec![]), "01 09 02 03 00"),
        (op(None, vec![0xab]), "01 09 02 03 00 ab"),
        (op(Some(stamp()), vec![]), "01 09 02 03 01 02 ac 02"),
        (op(Some(stamp()), vec![0xab]), "01 09 02 03 01 02 ac 02 ab"),
        (
            RegimeMsg::OpAll {
                object: 9,
                op: vec![],
            },
            "02 09",
        ),
        (
            RegimeMsg::OpAll {
                object: 9,
                op: vec![4],
            },
            "02 09 04",
        ),
        (
            RegimeMsg::OpAll {
                object: 9,
                op: vec![4, 5],
            },
            "02 09 04 05",
        ),
        (RegimeMsg::Propose { object: 9 }, "03 09"),
        (
            RegimeMsg::Report {
                object: 9,
                reads: 100,
                writes: 3,
            },
            "04 09 64 03",
        ),
        (
            RegimeMsg::Drain {
                object: 9,
                epoch: 2,
                partition: 0,
            },
            "05 09 02 00",
        ),
        (
            RegimeMsg::Install {
                object: 9,
                epoch: 3,
                partition: 1,
                type_name: "orca.Set".into(),
                state: vec![0, 0],
                dedup: window(),
                regime: RegimeKind::Replicated,
                mirrors: vec![0, 2],
                from: None,
            },
            "06 09 03 01 08 6f 72 63 61 2e 53 65 74 02 00 00 01 03 0b 02 01 02 00 02 00 02",
        ),
        (
            RegimeMsg::Install {
                object: 9,
                epoch: 4,
                partition: 1,
                type_name: "orca.Set".into(),
                state: vec![],
                dedup: DedupWindow::new(),
                regime: RegimeKind::Sharded,
                mirrors: vec![2],
                from: None,
            },
            "06 09 04 01 08 6f 72 63 61 2e 53 65 74 00 00 02 01 02",
        ),
        (
            RegimeMsg::Install {
                object: 9,
                epoch: 4,
                partition: 1,
                type_name: "orca.Set".into(),
                state: vec![],
                dedup: DedupWindow::new(),
                regime: RegimeKind::Sharded,
                mirrors: vec![2],
                from: Some(3),
            },
            "06 09 04 01 08 6f 72 63 61 2e 53 65 74 00 00 02 01 02 03",
        ),
        (
            mirror(None),
            "07 09 03 08 6f 72 63 61 2e 49 6e 74 01 07 0c 00 01 96 01",
        ),
        (
            mirror(Some(2)),
            "07 09 03 08 6f 72 63 61 2e 49 6e 74 01 07 0c 00 01 96 01 02",
        ),
        (
            mirror(Some(300)),
            "07 09 03 08 6f 72 63 61 2e 49 6e 74 01 07 0c 00 01 96 01 ac 02",
        ),
        (fetch_mirror(None, None), "08 09 03 00"),
        (fetch_mirror(Some(1), None), "08 09 03 00 01"),
        (fetch_mirror(None, Some(12)), "08 09 03 01 0c"),
        (fetch_mirror(Some(1), Some(12)), "08 09 03 01 0c 01"),
        (drop_copies(None, None), "09 09 03 00"),
        (drop_copies(None, Some(14)), "09 09 03 01 0e"),
        (drop_copies(Some(1), Some(14)), "09 09 03 01 0e 01"),
        (
            RegimeMsg::Update {
                object: 9,
                epoch: 3,
                partition: None,
                seq: 13,
                held: false,
                ops: vec![vec![1]],
                stamped: Some((stamp(), vec![0])),
                lease: Some(150),
            },
            "0a 00 09 03 0d 01 01 01 01 02 ac 02 01 00 01 96 01",
        ),
        (
            held_update(None),
            "0a 01 09 03 0e 03 02 01 02 00 02 80 ff 00 00",
        ),
        (
            held_update(Some(2)),
            "0a 01 09 03 0e 03 02 01 02 00 02 80 ff 00 00 02",
        ),
        (unlock(None), "0b 09 03 0d"),
        (unlock(Some(2)), "0b 09 03 0d 02"),
        (write_through(vec![]), "0e 09 03 00 01 02 ac 02"),
        (write_through(vec![1]), "0e 09 03 00 01 02 ac 02 01"),
        (RegimeMsg::Holdings { object: 9 }, "0c 09"),
        (
            RegimeMsg::Promote {
                object: 9,
                epoch: 3,
                partition: Some(2),
            },
            "0f 09 03 02",
        ),
        (
            RegimeMsg::Promote {
                object: 9,
                epoch: 3,
                partition: None,
            },
            "0f 09 03",
        ),
        (RegimeMsg::Unreached { object: 9, node: 2 }, "10 09 02"),
    ]
}

fn holdings() -> Vec<(Holdings, &'static str)> {
    vec![(Holdings::default(), "00 00 00"), (full_holdings(), "0c 6f 72 63 61 2e 4b 76 54 61 62 6c 65 01 00 04 09 02 02 01 03 03 01 01 04 03 01 01 03 28 00 04 11")]
}

fn installed(reply: Vec<u8>) -> RegimeReply {
    RegimeReply::Installed {
        reply,
        seq: 14,
        lease: Some(150),
    }
}

fn regime_replies() -> Vec<(RegimeReply, &'static str)> {
    let mut outcomes = BatchOutcomes::default();
    outcomes.push(2, BatchOutcome::Done(vec![1]));
    outcomes.push(1, BatchOutcome::Stale);
    vec![
        (RegimeReply::Done(vec![]), "00"),
        (RegimeReply::Done(vec![9]), "00 09"),
        (RegimeReply::Done(vec![9, 8]), "00 09 08"),
        (RegimeReply::Blocked, "01"),
        (RegimeReply::Route(sharded_table()), "02 91 80 80 80 80 80 c0 01 0c 6f 72 63 61 2e 4b 76 54 61 62 6c 65 05 02 04 00 01 02 01 00"),
        (RegimeReply::Route(replicated_table()), "02 09 08 6f 72 63 61 2e 49 6e 74 01 00 01 02 02 00 01"),
        (RegimeReply::StaleRegime, "03"),
        (
            RegimeReply::State {
                state: vec![1, 2],
                dedup: window(),
            },
            "04 02 01 02 01 03 0b 02 01 02",
        ),
        (
            RegimeReply::MirrorState {
                state: vec![3],
                seq: 8,
                dedup: window(),
                lease: Some(150),
            },
            "05 01 03 08 01 03 0b 02 01 02 01 96 01",
        ),
        (
            RegimeReply::MirrorState {
                state: vec![],
                seq: 0,
                dedup: DedupWindow::new(),
                lease: None,
            },
            "05 00 00 00 00",
        ),
        (RegimeReply::Renewed(grant()), "0c 09 03 04 96 01"),
        (RegimeReply::Ack, "06"),
        (RegimeReply::Error("nope".into()), "07 04 6e 6f 70 65"),
        (RegimeReply::Holdings(Box::default()), "08 00 00 00"),
        (RegimeReply::Holdings(Box::new(full_holdings())), "08 0c 6f 72 63 61 2e 4b 76 54 61 62 6c 65 01 00 04 09 02 02 01 03 03 01 01 04 03 01 01 03 28 00 04 11"),
        (RegimeReply::ObjectLost, "09"),
        (RegimeReply::Batch(outcomes), "0a 03 02 04 01 01 01"),
        (installed(vec![]), "0b 0e 01 96 01"),
        (installed(vec![5]), "0b 0e 01 96 01 05"),
    ]
}

fn recovery_msgs() -> Vec<(RecoveryMsg, &'static str)> {
    vec![(
        RecoveryMsg::Heartbeat {
            node: 3,
            epoch: 300,
        },
        "00 03 ac 02",
    )]
}

fn lease_grants() -> Vec<(LeaseGrant, &'static str)> {
    vec![(grant(), "09 03 04 96 01")]
}

fn op_stamps() -> Vec<(OpStamp, &'static str)> {
    vec![(stamp(), "02 ac 02")]
}

/// The out-of-band tags — a batch request is its tag and an op batch, never
/// an owned message — decode as no message.
#[test]
fn a_reserved_tag_is_no_message() {
    assert_eq!(
        RegimeMsg::from_bytes(&[RegimeMsg::OP_BATCH_TAG]),
        Err(WireError::InvalidTag {
            type_name: "RegimeMsg",
            tag: 13,
        })
    );
}
