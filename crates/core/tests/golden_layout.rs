//! The byte layout of the object library's operations, replies and states,
//! pinned: every variant with the hex bytes it encodes to (see the wire
//! crate's `tests/support/golden.rs` for the rules each table is checked
//! against).

#[macro_use]
#[path = "../../wire/tests/support/golden.rs"]
mod golden;

use orca_core::objects::{
    BarrierOp, BoolArrayOp, BoolOp, IntOp, JobQueueOp, JobQueueReply, JobQueueState, KvTableOp,
    KvTableReply, SetObject, SetOp, TableEntry,
};
use orca_object::ObjectType;

/// Not re-exported by name: the set object's reply type.
type SetReply = <SetObject as ObjectType>::Reply;

golden_tests!(
    set_ops,
    set_replies,
    bool_array_ops,
    bool_ops,
    job_queue_states,
    job_queue_ops,
    job_queue_replies,
    table_entries,
    kv_table_ops,
    kv_table_replies,
    int_ops,
    barrier_ops,
);

fn entry() -> TableEntry {
    TableEntry {
        depth: -3,
        value: 300,
        aux: 42,
    }
}

fn set_ops() -> Vec<(SetOp, &'static str)> {
    vec![
        (SetOp::Add(1), "00 01"),
        (SetOp::AddAll(vec![2, 300]), "01 02 02 ac 02"),
        (SetOp::Contains(4), "02 04"),
        (SetOp::Len, "03"),
        (SetOp::Snapshot, "04"),
    ]
}

fn set_replies() -> Vec<(SetReply, &'static str)> {
    vec![
        (SetReply::Count(3), "00 03"),
        (SetReply::Elements(vec![1, 2]), "01 02 01 02"),
    ]
}

fn bool_array_ops() -> Vec<(BoolArrayOp, &'static str)> {
    vec![
        (
            BoolArrayOp::Set {
                index: 300,
                value: true,
            },
            "00 ac 02 01",
        ),
        (
            BoolArrayOp::SetAllOf {
                indices: vec![1, 2],
            },
            "01 02 01 02",
        ),
        (BoolArrayOp::Get(0), "02 00"),
        (BoolArrayOp::AllFalse, "03"),
        (BoolArrayOp::AllTrue, "04"),
        (BoolArrayOp::CountTrue, "05"),
    ]
}

fn bool_ops() -> Vec<(BoolOp, &'static str)> {
    vec![
        (BoolOp::Value, "00"),
        (BoolOp::Set(true), "01 01"),
        (BoolOp::AwaitTrue, "02"),
    ]
}

fn job_queue_states() -> Vec<(JobQueueState, &'static str)> {
    vec![
        (JobQueueState::default(), "00 00 00"),
        (
            JobQueueState {
                jobs: vec![vec![1, 2], vec![]].into(),
                closed: true,
                total_added: 300,
            },
            "02 02 01 02 00 01 ac 02",
        ),
    ]
}

fn job_queue_ops() -> Vec<(JobQueueOp, &'static str)> {
    vec![
        (JobQueueOp::AddJob(vec![1]), "00 01 01"),
        (JobQueueOp::AddJobs(vec![vec![2], vec![]]), "01 02 01 02 00"),
        (JobQueueOp::Close, "02"),
        (JobQueueOp::GetJob, "03"),
        (JobQueueOp::Len, "04"),
    ]
}

fn job_queue_replies() -> Vec<(JobQueueReply, &'static str)> {
    vec![
        (JobQueueReply::Job(vec![1, 0x80]), "00 02 01 80"),
        (JobQueueReply::NoMoreJobs, "01"),
        (JobQueueReply::Len(4), "02 04"),
    ]
}

fn table_entries() -> Vec<(TableEntry, &'static str)> {
    vec![
        (entry(), "05 d8 04 2a"),
        (TableEntry::default(), "00 00 00"),
    ]
}

fn kv_table_ops() -> Vec<(KvTableOp, &'static str)> {
    vec![
        (
            KvTableOp::Put {
                key: 1 << 40,
                entry: entry(),
            },
            "00 80 80 80 80 80 20 05 d8 04 2a",
        ),
        (KvTableOp::Get(2), "01 02"),
        (KvTableOp::Len, "02"),
        (KvTableOp::Clear, "03"),
    ]
}

fn kv_table_replies() -> Vec<(KvTableReply, &'static str)> {
    vec![
        (KvTableReply::Found(entry()), "00 05 d8 04 2a"),
        (KvTableReply::Missing, "01"),
        (KvTableReply::Count(2), "02 02"),
    ]
}

fn int_ops() -> Vec<(IntOp, &'static str)> {
    vec![
        (IntOp::Value, "00"),
        (IntOp::Assign(-3), "01 05"),
        (IntOp::Add(300), "02 d8 04"),
        (IntOp::MinAssign(2), "03 04"),
        (IntOp::AwaitAtMost(0), "04 00"),
    ]
}

fn barrier_ops() -> Vec<(BarrierOp, &'static str)> {
    vec![
        (BarrierOp::Arrive, "00"),
        (BarrierOp::WaitFor(3), "01 03"),
        (BarrierOp::Count, "02"),
        (BarrierOp::Reset, "03"),
    ]
}
