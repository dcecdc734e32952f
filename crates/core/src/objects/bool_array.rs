//! Shared array of booleans.
//!
//! ACP uses two of these: `work[v]` marks variables whose value sets must be
//! rechecked, and `result[p]` marks processes that are willing to terminate.
//! The termination test of the paper ("all entries of `work` are false and
//! all entries of `result` are true") maps onto the indivisible `AllFalse`
//! and `AllTrue` read operations.

use orca_object::shard::{ShardRoute, ShardableType};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

/// Marker type for the shared boolean-array object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolArrayObject;

wire_type! {
    /// Operations of [`BoolArrayObject`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BoolArrayOp {
        /// Set entry `index` to `value` (write); returns the new value.
        SET_TAG = 0 => Set {
            /// Entry to modify.
            index: u32,
            /// New value.
            value: bool,
        },
        /// Set several entries to `true` in one indivisible operation (write);
        /// returns `true`. Used to mark all neighbours of a reduced variable.
        SET_ALL_OF_TAG = 1 => SetAllOf {
            /// Entries to set.
            indices: Vec<u32>,
        },
        /// Read entry `index`.
        GET_TAG = 2 => Get(u32),
        /// True if every entry is false (read).
        ALL_FALSE_TAG = 3 => AllFalse,
        /// True if every entry is true (read).
        ALL_TRUE_TAG = 4 => AllTrue,
        /// Number of entries that are true (read).
        COUNT_TRUE_TAG = 5 => CountTrue,
    }
}

impl ObjectType for BoolArrayObject {
    type State = Vec<bool>;
    type Op = BoolArrayOp;
    type Reply = u64;

    const TYPE_NAME: &'static str = "orca.BoolArray";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            BoolArrayOp::Set { .. } | BoolArrayOp::SetAllOf { .. } => OpKind::Write,
            BoolArrayOp::Get(_)
            | BoolArrayOp::AllFalse
            | BoolArrayOp::AllTrue
            | BoolArrayOp::CountTrue => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            BoolArrayOp::Set { index, value } => {
                let index = *index as usize;
                if index < state.len() {
                    state[index] = *value;
                }
                OpOutcome::Done(u64::from(*value))
            }
            BoolArrayOp::SetAllOf { indices } => {
                for &index in indices {
                    let index = index as usize;
                    if index < state.len() {
                        state[index] = true;
                    }
                }
                OpOutcome::Done(1)
            }
            BoolArrayOp::Get(index) => {
                let value = state.get(*index as usize).copied().unwrap_or(false);
                OpOutcome::Done(u64::from(value))
            }
            BoolArrayOp::AllFalse => OpOutcome::Done(u64::from(state.iter().all(|v| !*v))),
            BoolArrayOp::AllTrue => OpOutcome::Done(u64::from(state.iter().all(|v| *v))),
            BoolArrayOp::CountTrue => OpOutcome::Done(state.iter().filter(|v| **v).count() as u64),
        }
    }
}

/// Partitioning: the array is split round-robin — global entry `i` lives in
/// partition `i % parts` at local position `i / parts` — so `Set`/`Get` are
/// single-partition operations (with the index remapped by `op_for`) and
/// the aggregate reads (`AllFalse`, `AllTrue`, `CountTrue`) gather over all
/// partitions.
impl ShardableType for BoolArrayObject {
    fn split_state(state: &Self::State, parts: u32) -> Vec<Self::State> {
        let parts = parts.max(1) as usize;
        let mut split = vec![Vec::new(); parts];
        for (index, &value) in state.iter().enumerate() {
            split[index % parts].push(value);
        }
        split
    }

    fn merge_states(parts: Vec<Self::State>) -> Self::State {
        // Inverse of the round-robin split: global entry `i` lives in
        // partition `i % parts` at local position `i / parts`.
        let n = parts.len().max(1);
        let len: usize = parts.iter().map(Vec::len).sum();
        (0..len)
            .map(|i| parts[i % n].get(i / n).copied().unwrap_or(false))
            .collect()
    }

    fn route(op: &Self::Op, parts: u32) -> ShardRoute {
        match op {
            BoolArrayOp::Set { index, .. } => ShardRoute::One(index % parts.max(1)),
            BoolArrayOp::Get(index) => ShardRoute::One(index % parts.max(1)),
            BoolArrayOp::SetAllOf { .. }
            | BoolArrayOp::AllFalse
            | BoolArrayOp::AllTrue
            | BoolArrayOp::CountTrue => ShardRoute::All,
        }
    }

    fn op_for(op: &Self::Op, partition: u32, parts: u32) -> Self::Op {
        let parts = parts.max(1);
        match op {
            BoolArrayOp::Set { index, value } => BoolArrayOp::Set {
                index: index / parts,
                value: *value,
            },
            BoolArrayOp::Get(index) => BoolArrayOp::Get(index / parts),
            BoolArrayOp::SetAllOf { indices } => BoolArrayOp::SetAllOf {
                indices: indices
                    .iter()
                    .filter(|index| *index % parts == partition)
                    .map(|index| index / parts)
                    .collect(),
            },
            other => other.clone(),
        }
    }

    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply {
        match op {
            BoolArrayOp::AllFalse | BoolArrayOp::AllTrue => {
                u64::from(replies.iter().all(|reply| *reply != 0))
            }
            BoolArrayOp::CountTrue => replies.iter().sum(),
            BoolArrayOp::SetAllOf { .. } => 1,
            _ => replies.into_iter().next().unwrap_or(0),
        }
    }
}

/// Typed convenience wrapper around a [`BoolArrayObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct BoolArray {
    handle: ObjectHandle<BoolArrayObject>,
}

impl BoolArray {
    /// Create an array of `len` entries, all set to `initial`.
    pub fn create(ctx: &OrcaNode, len: usize, initial: bool) -> OrcaResult<Self> {
        Ok(BoolArray {
            handle: ctx.create::<BoolArrayObject>(&vec![initial; len])?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<BoolArrayObject>) -> Self {
        BoolArray { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<BoolArrayObject> {
        self.handle
    }

    /// Set one entry.
    pub fn set(&self, ctx: &OrcaNode, index: u32, value: bool) -> OrcaResult<()> {
        ctx.invoke(self.handle, &BoolArrayOp::Set { index, value })?;
        Ok(())
    }

    /// Set several entries to true indivisibly.
    pub fn set_all_of(&self, ctx: &OrcaNode, indices: Vec<u32>) -> OrcaResult<()> {
        ctx.invoke(self.handle, &BoolArrayOp::SetAllOf { indices })?;
        Ok(())
    }

    /// Read one entry.
    pub fn get(&self, ctx: &OrcaNode, index: u32) -> OrcaResult<bool> {
        Ok(ctx.invoke(self.handle, &BoolArrayOp::Get(index))? != 0)
    }

    /// True if every entry is false.
    pub fn all_false(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        Ok(ctx.invoke(self.handle, &BoolArrayOp::AllFalse)? != 0)
    }

    /// True if every entry is true.
    pub fn all_true(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        Ok(ctx.invoke(self.handle, &BoolArrayOp::AllTrue)? != 0)
    }

    /// Number of true entries.
    pub fn count_true(&self, ctx: &OrcaNode) -> OrcaResult<u64> {
        ctx.invoke(self.handle, &BoolArrayOp::CountTrue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn semantics() {
        let mut state = vec![false; 4];
        BoolArrayObject::apply(
            &mut state,
            &BoolArrayOp::Set {
                index: 1,
                value: true,
            },
        );
        assert_eq!(
            BoolArrayObject::apply(&mut state, &BoolArrayOp::Get(1)),
            OpOutcome::Done(1)
        );
        assert_eq!(
            BoolArrayObject::apply(&mut state, &BoolArrayOp::AllFalse),
            OpOutcome::Done(0)
        );
        BoolArrayObject::apply(
            &mut state,
            &BoolArrayOp::SetAllOf {
                indices: vec![0, 2, 3],
            },
        );
        assert_eq!(
            BoolArrayObject::apply(&mut state, &BoolArrayOp::AllTrue),
            OpOutcome::Done(1)
        );
        assert_eq!(
            BoolArrayObject::apply(&mut state, &BoolArrayOp::CountTrue),
            OpOutcome::Done(4)
        );
    }

    #[test]
    fn out_of_range_accesses_are_harmless() {
        let mut state = vec![false; 2];
        BoolArrayObject::apply(
            &mut state,
            &BoolArrayOp::Set {
                index: 9,
                value: true,
            },
        );
        assert_eq!(
            BoolArrayObject::apply(&mut state, &BoolArrayOp::Get(9)),
            OpOutcome::Done(0)
        );
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn shard_split_and_index_remap_agree_with_flat_semantics() {
        // Apply the same operations to a flat array and to a 3-way split;
        // the observables must agree.
        let len = 10usize;
        let parts = 3u32;
        let mut flat = vec![false; len];
        let mut split = BoolArrayObject::split_state(&flat, parts);
        assert_eq!(split.iter().map(Vec::len).sum::<usize>(), len);
        // merge_states is the exact inverse of the round-robin split.
        assert_eq!(BoolArrayObject::merge_states(split.clone()), flat);

        let ops = [
            BoolArrayOp::Set {
                index: 4,
                value: true,
            },
            BoolArrayOp::SetAllOf {
                indices: vec![0, 5, 9, 42],
            },
            BoolArrayOp::Set {
                index: 42,
                value: true,
            },
        ];
        for op in &ops {
            BoolArrayObject::apply(&mut flat, op);
            match BoolArrayObject::route(op, parts) {
                ShardRoute::One(p) => {
                    let local = BoolArrayObject::op_for(op, p, parts);
                    BoolArrayObject::apply(&mut split[p as usize], &local);
                }
                ShardRoute::All => {
                    for p in 0..parts {
                        let local = BoolArrayObject::op_for(op, p, parts);
                        BoolArrayObject::apply(&mut split[p as usize], &local);
                    }
                }
                ShardRoute::Any => panic!("no Any ops on BoolArray"),
            }
        }
        for (index, &value) in flat.iter().enumerate() {
            let p = index as u32 % parts;
            let local = BoolArrayObject::op_for(&BoolArrayOp::Get(index as u32), p, parts);
            assert_eq!(
                BoolArrayObject::apply(&mut split[p as usize], &local),
                OpOutcome::Done(u64::from(value)),
                "index {index}"
            );
        }
        for op in [
            BoolArrayOp::AllFalse,
            BoolArrayOp::AllTrue,
            BoolArrayOp::CountTrue,
        ] {
            let flat_reply = BoolArrayObject::apply(&mut flat, &op).unwrap();
            let replies: Vec<u64> = split
                .iter_mut()
                .map(|s| BoolArrayObject::apply(s, &op).unwrap())
                .collect();
            assert_eq!(BoolArrayObject::combine(&op, replies), flat_reply, "{op:?}");
        }
    }

    #[test]
    fn codec_round_trip() {
        for op in [
            BoolArrayOp::Set {
                index: 3,
                value: true,
            },
            BoolArrayOp::SetAllOf {
                indices: vec![1, 2],
            },
            BoolArrayOp::Get(0),
            BoolArrayOp::AllFalse,
            BoolArrayOp::AllTrue,
            BoolArrayOp::CountTrue,
        ] {
            assert_eq!(BoolArrayOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }
}
