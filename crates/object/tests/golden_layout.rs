//! The byte layout of an object descriptor and of the test objects'
//! operations and replies, pinned: every variant with the hex bytes it
//! encodes to (see the wire crate's `tests/support/golden.rs` for the rules
//! each table is checked against).

#[macro_use]
#[path = "../../wire/tests/support/golden.rs"]
mod golden;

use orca_object::testing::{AccumulatorOp, BankOp, BankReply, EventLogOp, EventLogReply};
use orca_object::{ObjectDescriptor, ObjectId};

golden_tests!(
    descriptors,
    accumulator_ops,
    event_log_ops,
    event_log_replies,
    bank_ops,
    bank_replies,
);

fn descriptors() -> Vec<(ObjectDescriptor, &'static str)> {
    vec![
        (
            ObjectDescriptor {
                id: ObjectId::compose(3, 99),
                type_name: "orca.Int".into(),
                state: vec![1, 2, 3],
            },
            "e3 80 80 80 80 80 c0 01 08 6f 72 63 61 2e 49 6e 74 03 01 02 03",
        ),
        (
            ObjectDescriptor {
                id: ObjectId(0),
                type_name: String::new(),
                state: vec![],
            },
            "00 00 00",
        ),
    ]
}

fn accumulator_ops() -> Vec<(AccumulatorOp, &'static str)> {
    vec![
        (AccumulatorOp::Read, "00"),
        (AccumulatorOp::Add(-5), "01 09"),
        (AccumulatorOp::Set(300), "02 d8 04"),
        (AccumulatorOp::AwaitAtLeast(2), "03 04"),
    ]
}

fn event_log_ops() -> Vec<(EventLogOp, &'static str)> {
    vec![
        (EventLogOp::Append(300), "00 ac 02"),
        (EventLogOp::Snapshot, "01"),
        (EventLogOp::Len, "02"),
    ]
}

fn event_log_replies() -> Vec<(EventLogReply, &'static str)> {
    vec![
        (EventLogReply::Len(7), "00 07"),
        (
            EventLogReply::Contents(vec![1, 2, 300]),
            "01 03 01 02 ac 02",
        ),
    ]
}

fn bank_ops() -> Vec<(BankOp, &'static str)> {
    vec![
        (
            BankOp::Deposit {
                key: 300,
                amount: -7,
            },
            "00 ac 02 0d",
        ),
        (BankOp::Get(4), "01 04"),
        (BankOp::Sum, "02"),
        (BankOp::Clear, "03"),
    ]
}

fn bank_replies() -> Vec<(BankReply, &'static str)> {
    vec![(BankReply::Value(-1), "00 01")]
}
