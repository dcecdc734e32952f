//! Shared set of identifiers.
//!
//! The ATPG program shares "an object containing the gates for which test
//! patterns have been generated": whenever a process adds a fault to this
//! set, the other processes drop it from their remaining work.

use std::collections::BTreeSet;

use orca_object::shard::{shard_of_u64, ShardRoute, ShardableType};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

/// Marker type for the shared set object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetObject;

wire_type! {
    /// Operations of [`SetObject`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SetOp {
        /// Insert one element (write); returns 1 if it was new.
        ADD_TAG = 0 => Add(u64),
        /// Insert several elements (write); returns how many were new.
        ADD_ALL_TAG = 1 => AddAll(Vec<u64>),
        /// Membership test (read).
        CONTAINS_TAG = 2 => Contains(u64),
        /// Number of elements (read).
        LEN_TAG = 3 => Len,
        /// Return all elements (read).
        SNAPSHOT_TAG = 4 => Snapshot,
    }
}

wire_type! {
    /// Reply type of [`SetObject`] operations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SetReply {
        /// Count (insertions, length or 0/1 membership).
        COUNT_TAG = 0 => Count(u64),
        /// All elements, sorted.
        ELEMENTS_TAG = 1 => Elements(Vec<u64>),
    }
}

impl ObjectType for SetObject {
    type State = BTreeSet<u64>;
    type Op = SetOp;
    type Reply = SetReply;

    const TYPE_NAME: &'static str = "orca.Set";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            SetOp::Add(_) | SetOp::AddAll(_) => OpKind::Write,
            SetOp::Contains(_) | SetOp::Len | SetOp::Snapshot => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            SetOp::Add(v) => OpOutcome::Done(SetReply::Count(u64::from(state.insert(*v)))),
            SetOp::AddAll(values) => {
                let added = values.iter().filter(|v| state.insert(**v)).count();
                OpOutcome::Done(SetReply::Count(added as u64))
            }
            SetOp::Contains(v) => OpOutcome::Done(SetReply::Count(u64::from(state.contains(v)))),
            SetOp::Len => OpOutcome::Done(SetReply::Count(state.len() as u64)),
            SetOp::Snapshot => OpOutcome::Done(SetReply::Elements(state.iter().copied().collect())),
        }
    }
}

/// Partitioning: elements are hashed onto partitions (disjoint sub-sets),
/// so `Add`/`Contains` are single-partition operations; `Len` and
/// `Snapshot` gather over all partitions.
impl ShardableType for SetObject {
    fn split_state(state: Self::State, parts: u32) -> Vec<Self::State> {
        // Each partition's elements come out sorted, so its set is built in
        // bulk.
        let mut split = vec![Vec::new(); parts.max(1) as usize];
        for value in state {
            split[shard_of_u64(value, parts) as usize].push(value);
        }
        split.into_iter().map(Self::State::from_iter).collect()
    }

    fn merge_states(parts: Vec<Self::State>) -> Self::State {
        // Partitions hold disjoint sub-sets, so a plain union recombines.
        parts.into_iter().flatten().collect()
    }

    fn route(op: &Self::Op, parts: u32) -> ShardRoute {
        match op {
            SetOp::Add(v) => ShardRoute::One(shard_of_u64(*v, parts)),
            SetOp::Contains(v) => ShardRoute::One(shard_of_u64(*v, parts)),
            SetOp::AddAll(_) | SetOp::Len | SetOp::Snapshot => ShardRoute::All,
        }
    }

    fn op_for(op: &Self::Op, partition: u32, parts: u32) -> Self::Op {
        match op {
            SetOp::AddAll(values) => SetOp::AddAll(
                values
                    .iter()
                    .filter(|v| shard_of_u64(**v, parts) == partition)
                    .copied()
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply {
        match op {
            SetOp::AddAll(_) | SetOp::Len => SetReply::Count(
                replies
                    .iter()
                    .map(|reply| match reply {
                        SetReply::Count(n) => *n,
                        _ => 0,
                    })
                    .sum(),
            ),
            SetOp::Snapshot => {
                let mut all: Vec<u64> = replies
                    .into_iter()
                    .flat_map(|reply| match reply {
                        SetReply::Elements(v) => v,
                        _ => Vec::new(),
                    })
                    .collect();
                all.sort_unstable();
                SetReply::Elements(all)
            }
            _ => replies.into_iter().next().unwrap_or(SetReply::Count(0)),
        }
    }
}

/// Typed convenience wrapper around a [`SetObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct SharedSet {
    handle: ObjectHandle<SetObject>,
}

impl SharedSet {
    /// Create an empty shared set.
    pub fn create(ctx: &OrcaNode) -> OrcaResult<Self> {
        Ok(SharedSet {
            handle: ctx.create::<SetObject>(&BTreeSet::new())?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<SetObject>) -> Self {
        SharedSet { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<SetObject> {
        self.handle
    }

    /// Insert one element; returns true if it was new.
    pub fn add(&self, ctx: &OrcaNode, value: u64) -> OrcaResult<bool> {
        match ctx.invoke(self.handle, &SetOp::Add(value))? {
            SetReply::Count(n) => Ok(n == 1),
            _ => Ok(false),
        }
    }

    /// Insert several elements; returns how many were new.
    pub fn add_all(&self, ctx: &OrcaNode, values: Vec<u64>) -> OrcaResult<u64> {
        match ctx.invoke(self.handle, &SetOp::AddAll(values))? {
            SetReply::Count(n) => Ok(n),
            _ => Ok(0),
        }
    }

    /// Membership test.
    pub fn contains(&self, ctx: &OrcaNode, value: u64) -> OrcaResult<bool> {
        match ctx.invoke(self.handle, &SetOp::Contains(value))? {
            SetReply::Count(n) => Ok(n == 1),
            _ => Ok(false),
        }
    }

    /// Number of elements.
    pub fn len(&self, ctx: &OrcaNode) -> OrcaResult<u64> {
        match ctx.invoke(self.handle, &SetOp::Len)? {
            SetReply::Count(n) => Ok(n),
            _ => Ok(0),
        }
    }

    /// True if the set is empty.
    pub fn is_empty(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        Ok(self.len(ctx)? == 0)
    }

    /// All elements, sorted.
    pub fn snapshot(&self, ctx: &OrcaNode) -> OrcaResult<Vec<u64>> {
        match ctx.invoke(self.handle, &SetOp::Snapshot)? {
            SetReply::Elements(v) => Ok(v),
            SetReply::Count(_) => Ok(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn set_semantics() {
        let mut state = BTreeSet::new();
        assert_eq!(
            SetObject::apply(&mut state, &SetOp::Add(5)),
            OpOutcome::Done(SetReply::Count(1))
        );
        assert_eq!(
            SetObject::apply(&mut state, &SetOp::Add(5)),
            OpOutcome::Done(SetReply::Count(0))
        );
        assert_eq!(
            SetObject::apply(&mut state, &SetOp::AddAll(vec![5, 6, 7])),
            OpOutcome::Done(SetReply::Count(2))
        );
        assert_eq!(
            SetObject::apply(&mut state, &SetOp::Contains(6)),
            OpOutcome::Done(SetReply::Count(1))
        );
        assert_eq!(
            SetObject::apply(&mut state, &SetOp::Snapshot),
            OpOutcome::Done(SetReply::Elements(vec![5, 6, 7]))
        );
    }

    #[test]
    fn shard_split_routes_and_gathers() {
        let state: BTreeSet<u64> = (0..32).collect();
        let split = SetObject::split_state(state.clone(), 4);
        assert_eq!(split.iter().map(BTreeSet::len).sum::<usize>(), 32);
        assert_eq!(SetObject::merge_states(split.clone()), state);
        for (p, sub) in split.iter().enumerate() {
            for &value in sub {
                assert_eq!(
                    SetObject::route(&SetOp::Add(value), 4),
                    ShardRoute::One(p as u32)
                );
                assert_eq!(
                    SetObject::route(&SetOp::Contains(value), 4),
                    ShardRoute::One(p as u32)
                );
            }
        }
        // AddAll narrows to each partition's share; the shares cover the
        // batch exactly once.
        let batch: Vec<u64> = (100..120).collect();
        let mut covered = Vec::new();
        for p in 0..4 {
            let SetOp::AddAll(share) = SetObject::op_for(&SetOp::AddAll(batch.clone()), p, 4)
            else {
                panic!("op_for must stay AddAll");
            };
            covered.extend(share);
        }
        covered.sort_unstable();
        assert_eq!(covered, batch);
        // Snapshot merges sorted; Len sums.
        assert_eq!(
            SetObject::combine(
                &SetOp::Snapshot,
                vec![
                    SetReply::Elements(vec![5, 9]),
                    SetReply::Elements(vec![2, 7])
                ]
            ),
            SetReply::Elements(vec![2, 5, 7, 9])
        );
        assert_eq!(
            SetObject::combine(&SetOp::Len, vec![SetReply::Count(2), SetReply::Count(3)]),
            SetReply::Count(5)
        );
    }

    #[test]
    fn codec_round_trips() {
        for op in [
            SetOp::Add(1),
            SetOp::AddAll(vec![2, 3]),
            SetOp::Contains(4),
            SetOp::Len,
            SetOp::Snapshot,
        ] {
            assert_eq!(SetOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for reply in [SetReply::Count(3), SetReply::Elements(vec![1, 2])] {
            assert_eq!(SetReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }
}
