//! Small object types used by tests throughout the workspace.
//!
//! They are kept in the library (not behind `cfg(test)`) because the runtime
//! system crates and the integration tests need shared, well-understood
//! object types to exercise replication with.

use orca_wire::wire_type;

use crate::{ObjectType, OpKind, OpOutcome};

/// A shared integer accumulator with a guard-based wait operation.
///
/// * `Read` returns the current value (read).
/// * `Add(n)` adds `n` and returns the new value (write).
/// * `Set(n)` overwrites the value (write).
/// * `AwaitAtLeast(n)` blocks until the value is at least `n`, then returns
///   it (read with a guard — demonstrates Orca's blocking operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accumulator;

wire_type! {
    /// Operations of [`Accumulator`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AccumulatorOp {
        /// Return the current value.
        READ_TAG = 0 => Read,
        /// Add to the value, returning the new value.
        ADD_TAG = 1 => Add(i64),
        /// Overwrite the value.
        SET_TAG = 2 => Set(i64),
        /// Block until the value is at least the operand, then return it.
        AWAIT_AT_LEAST_TAG = 3 => AwaitAtLeast(i64),
    }
}

impl ObjectType for Accumulator {
    type State = i64;
    type Op = AccumulatorOp;
    type Reply = i64;

    const TYPE_NAME: &'static str = "test.Accumulator";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            AccumulatorOp::Read | AccumulatorOp::AwaitAtLeast(_) => OpKind::Read,
            AccumulatorOp::Add(_) | AccumulatorOp::Set(_) => OpKind::Write,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            AccumulatorOp::Read => OpOutcome::Done(*state),
            AccumulatorOp::Add(n) => {
                *state += n;
                OpOutcome::Done(*state)
            }
            AccumulatorOp::Set(n) => {
                *state = *n;
                OpOutcome::Done(*state)
            }
            AccumulatorOp::AwaitAtLeast(n) => {
                if *state >= *n {
                    OpOutcome::Done(*state)
                } else {
                    OpOutcome::Blocked
                }
            }
        }
    }
}

/// An append-only log of small integers; useful for checking that all
/// replicas observe writes in exactly the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLog;

wire_type! {
    /// Operations of [`EventLog`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EventLogOp {
        /// Append a value (write); returns the new length.
        APPEND_TAG = 0 => Append(u32),
        /// Return the whole log (read).
        SNAPSHOT_TAG = 1 => Snapshot,
        /// Return the length of the log (read).
        LEN_TAG = 2 => Len,
    }
}

wire_type! {
    /// Reply type of [`EventLog`] operations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EventLogReply {
        /// New length after an append, or current length.
        LEN_TAG = 0 => Len(u64),
        /// Full contents of the log.
        CONTENTS_TAG = 1 => Contents(Vec<u32>),
    }
}

impl ObjectType for EventLog {
    type State = Vec<u32>;
    type Op = EventLogOp;
    type Reply = EventLogReply;

    const TYPE_NAME: &'static str = "test.EventLog";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            EventLogOp::Append(_) => OpKind::Write,
            EventLogOp::Snapshot | EventLogOp::Len => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            EventLogOp::Append(v) => {
                state.push(*v);
                OpOutcome::Done(EventLogReply::Len(state.len() as u64))
            }
            EventLogOp::Snapshot => OpOutcome::Done(EventLogReply::Contents(state.clone())),
            EventLogOp::Len => OpOutcome::Done(EventLogReply::Len(state.len() as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn accumulator_semantics() {
        let mut state = 0i64;
        assert_eq!(
            Accumulator::apply(&mut state, &AccumulatorOp::Add(3)),
            OpOutcome::Done(3)
        );
        assert_eq!(
            Accumulator::apply(&mut state, &AccumulatorOp::AwaitAtLeast(5)),
            OpOutcome::Blocked
        );
        assert_eq!(
            Accumulator::apply(&mut state, &AccumulatorOp::Set(10)),
            OpOutcome::Done(10)
        );
        assert_eq!(
            Accumulator::apply(&mut state, &AccumulatorOp::AwaitAtLeast(5)),
            OpOutcome::Done(10)
        );
        assert_eq!(Accumulator::kind(&AccumulatorOp::Read), OpKind::Read);
        assert_eq!(Accumulator::kind(&AccumulatorOp::Add(1)), OpKind::Write);
    }

    #[test]
    fn event_log_semantics_and_codec() {
        let mut state: Vec<u32> = vec![];
        assert_eq!(
            EventLog::apply(&mut state, &EventLogOp::Append(7)),
            OpOutcome::Done(EventLogReply::Len(1))
        );
        assert_eq!(
            EventLog::apply(&mut state, &EventLogOp::Snapshot),
            OpOutcome::Done(EventLogReply::Contents(vec![7]))
        );
        for op in [EventLogOp::Append(3), EventLogOp::Snapshot, EventLogOp::Len] {
            assert_eq!(EventLogOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        let reply = EventLogReply::Contents(vec![1, 2, 3]);
        assert_eq!(EventLogReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn accumulator_op_codec_round_trip() {
        for op in [
            AccumulatorOp::Read,
            AccumulatorOp::Add(-5),
            AccumulatorOp::Set(9),
            AccumulatorOp::AwaitAtLeast(2),
        ] {
            assert_eq!(AccumulatorOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }
}

/// A shardable bank of keyed counters, used to exercise partitioning logic
/// and the sharded runtime system without pulling in the standard object
/// library of `orca-core` (which sits above this crate).
///
/// * `Deposit { key, amount }` adds to one account (write, one partition).
/// * `Get(key)` reads one account (read, one partition).
/// * `Sum` totals every account (read, all partitions).
/// * `Clear` empties the bank (write, all partitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank;

wire_type! {
    /// Operations of [`Bank`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BankOp {
        /// Add `amount` to account `key`, returning the new balance (write).
        DEPOSIT_TAG = 0 => Deposit {
            /// Account key.
            key: u64,
            /// Amount to add.
            amount: i64,
        },
        /// Return the balance of account `key`, 0 if absent (read).
        GET_TAG = 1 => Get(u64),
        /// Return the total over all accounts (read).
        SUM_TAG = 2 => Sum,
        /// Remove every account (write); returns 0.
        CLEAR_TAG = 3 => Clear,
    }
}

wire_type! {
    /// Reply type of [`Bank`] operations.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BankReply {
        /// A balance or a sum.
        VALUE_TAG = 0 => Value(i64),
    }
}

impl ObjectType for Bank {
    type State = std::collections::BTreeMap<u64, i64>;
    type Op = BankOp;
    type Reply = BankReply;

    const TYPE_NAME: &'static str = "test.Bank";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            BankOp::Deposit { .. } | BankOp::Clear => OpKind::Write,
            BankOp::Get(_) | BankOp::Sum => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            BankOp::Deposit { key, amount } => {
                let balance = state.entry(*key).or_insert(0);
                *balance += amount;
                OpOutcome::Done(BankReply::Value(*balance))
            }
            BankOp::Get(key) => {
                OpOutcome::Done(BankReply::Value(state.get(key).copied().unwrap_or(0)))
            }
            BankOp::Sum => OpOutcome::Done(BankReply::Value(state.values().sum())),
            BankOp::Clear => {
                state.clear();
                OpOutcome::Done(BankReply::Value(0))
            }
        }
    }
}

impl crate::shard::ShardableType for Bank {
    fn split_state(state: &Self::State, parts: u32) -> Vec<Self::State> {
        let mut split = vec![Self::State::new(); parts.max(1) as usize];
        for (&key, &balance) in state {
            split[crate::shard::shard_of_u64(key, parts) as usize].insert(key, balance);
        }
        split
    }

    fn merge_states(parts: Vec<Self::State>) -> Self::State {
        // Partitions hold disjoint key sets, so a plain union recombines.
        parts.into_iter().flatten().collect()
    }

    fn route(op: &Self::Op, parts: u32) -> crate::shard::ShardRoute {
        use crate::shard::{shard_of_u64, ShardRoute};
        match op {
            BankOp::Deposit { key, .. } => ShardRoute::One(shard_of_u64(*key, parts)),
            BankOp::Get(key) => ShardRoute::One(shard_of_u64(*key, parts)),
            BankOp::Sum | BankOp::Clear => ShardRoute::All,
        }
    }

    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply {
        match op {
            BankOp::Sum => BankReply::Value(replies.iter().map(|BankReply::Value(v)| v).sum()),
            // Deposit/Get are single-partition; Clear replies 0 everywhere.
            _ => replies.into_iter().next().unwrap_or(BankReply::Value(0)),
        }
    }
}
