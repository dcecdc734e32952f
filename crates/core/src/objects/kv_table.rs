//! Shared key-value table.
//!
//! Oracol (the chess program) keeps its transposition table and its killer
//! table either as local data structures or as shared objects; the shared
//! version is one object of this type per table. Keys are 64-bit hashes
//! (Zobrist keys for the transposition table, ply numbers for the killer
//! table); entries carry a value, a depth and a small payload word so the
//! search can store bounds and best moves.

use std::collections::BTreeMap;

use orca_object::shard::{shard_of_u64, ShardRoute, ShardableType};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::OrcaResult;

wire_type! {
    /// One table entry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TableEntry {
        /// Search depth the entry was computed at (entries from deeper searches
        /// replace shallower ones).
        pub depth: i32,
        /// Stored value (evaluation score, bound, ...).
        pub value: i64,
        /// Auxiliary payload (bound flag, encoded best move, ...).
        pub aux: u64,
    }
}

/// Marker type for the shared key-value table object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvTableObject;

wire_type! {
    /// Operations of [`KvTableObject`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum KvTableOp {
        /// Store an entry if it is at least as deep as the existing one (write);
        /// returns 1 if the entry was stored.
        PUT_TAG = 0 => Put {
            /// Hash key.
            key: u64,
            /// Entry to store.
            entry: TableEntry,
        },
        /// Look up a key (read).
        GET_TAG = 1 => Get(u64),
        /// Number of entries (read).
        LEN_TAG = 2 => Len,
        /// Remove everything (write).
        CLEAR_TAG = 3 => Clear,
    }
}

wire_type! {
    /// Reply type of [`KvTableObject`] operations.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum KvTableReply {
        /// Entry found for a `Get`.
        FOUND_TAG = 0 => Found(TableEntry),
        /// Nothing stored under the key.
        MISSING_TAG = 1 => Missing,
        /// Count reply (`Put`, `Len`, `Clear`).
        COUNT_TAG = 2 => Count(u64),
    }
}

impl ObjectType for KvTableObject {
    type State = BTreeMap<u64, TableEntry>;
    type Op = KvTableOp;
    type Reply = KvTableReply;

    const TYPE_NAME: &'static str = "orca.KvTable";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            KvTableOp::Put { .. } | KvTableOp::Clear => OpKind::Write,
            KvTableOp::Get(_) | KvTableOp::Len => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            KvTableOp::Put { key, entry } => {
                let stored = match state.get(key) {
                    Some(existing) if existing.depth > entry.depth => false,
                    _ => {
                        state.insert(*key, *entry);
                        true
                    }
                };
                OpOutcome::Done(KvTableReply::Count(u64::from(stored)))
            }
            KvTableOp::Get(key) => match state.get(key) {
                Some(entry) => OpOutcome::Done(KvTableReply::Found(*entry)),
                None => OpOutcome::Done(KvTableReply::Missing),
            },
            KvTableOp::Len => OpOutcome::Done(KvTableReply::Count(state.len() as u64)),
            KvTableOp::Clear => {
                state.clear();
                OpOutcome::Done(KvTableReply::Count(0))
            }
        }
    }
}

/// Partitioning: keys are hashed onto partitions, so the partitions hold
/// disjoint key ranges and `Put`/`Get` are single-partition operations —
/// writes to different keys proceed in parallel at different owners.
impl ShardableType for KvTableObject {
    fn split_state(state: Self::State, parts: u32) -> Vec<Self::State> {
        // Each partition's entries come out sorted, so its map is built in
        // bulk.
        let mut split = vec![Vec::new(); parts.max(1) as usize];
        for (key, entry) in state {
            split[shard_of_u64(key, parts) as usize].push((key, entry));
        }
        split.into_iter().map(Self::State::from_iter).collect()
    }

    fn merge_states(parts: Vec<Self::State>) -> Self::State {
        // Partitions hold disjoint key sets, so a plain union recombines.
        parts.into_iter().flatten().collect()
    }

    fn route(op: &Self::Op, parts: u32) -> ShardRoute {
        match op {
            KvTableOp::Put { key, .. } => ShardRoute::One(shard_of_u64(*key, parts)),
            KvTableOp::Get(key) => ShardRoute::One(shard_of_u64(*key, parts)),
            KvTableOp::Len | KvTableOp::Clear => ShardRoute::All,
        }
    }

    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply {
        match op {
            KvTableOp::Len => KvTableReply::Count(
                replies
                    .iter()
                    .map(|reply| match reply {
                        KvTableReply::Count(n) => *n,
                        _ => 0,
                    })
                    .sum(),
            ),
            KvTableOp::Clear => KvTableReply::Count(0),
            _ => replies.into_iter().next().unwrap_or(KvTableReply::Missing),
        }
    }
}

/// Typed convenience wrapper around a [`KvTableObject`] handle.
#[derive(Debug, Clone, Copy)]
pub struct KvTable {
    handle: ObjectHandle<KvTableObject>,
}

impl KvTable {
    /// Create an empty shared table.
    pub fn create(ctx: &OrcaNode) -> OrcaResult<Self> {
        Ok(KvTable {
            handle: ctx.create::<KvTableObject>(&BTreeMap::new())?,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<KvTableObject>) -> Self {
        KvTable { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<KvTableObject> {
        self.handle
    }

    /// Store an entry (deepest entry wins); returns true if it was stored.
    pub fn put(&self, ctx: &OrcaNode, key: u64, entry: TableEntry) -> OrcaResult<bool> {
        match ctx.invoke(self.handle, &KvTableOp::Put { key, entry })? {
            KvTableReply::Count(n) => Ok(n == 1),
            _ => Ok(false),
        }
    }

    /// Look up a key.
    pub fn get(&self, ctx: &OrcaNode, key: u64) -> OrcaResult<Option<TableEntry>> {
        match ctx.invoke(self.handle, &KvTableOp::Get(key))? {
            KvTableReply::Found(entry) => Ok(Some(entry)),
            _ => Ok(None),
        }
    }

    /// Number of entries.
    pub fn len(&self, ctx: &OrcaNode) -> OrcaResult<u64> {
        match ctx.invoke(self.handle, &KvTableOp::Len)? {
            KvTableReply::Count(n) => Ok(n),
            _ => Ok(0),
        }
    }

    /// True if the table is empty.
    pub fn is_empty(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        Ok(self.len(ctx)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn put_respects_depth_priority() {
        let mut state = BTreeMap::new();
        let deep = TableEntry {
            depth: 6,
            value: 100,
            aux: 1,
        };
        let shallow = TableEntry {
            depth: 2,
            value: -5,
            aux: 2,
        };
        assert_eq!(
            KvTableObject::apply(
                &mut state,
                &KvTableOp::Put {
                    key: 9,
                    entry: deep
                }
            ),
            OpOutcome::Done(KvTableReply::Count(1))
        );
        assert_eq!(
            KvTableObject::apply(
                &mut state,
                &KvTableOp::Put {
                    key: 9,
                    entry: shallow
                }
            ),
            OpOutcome::Done(KvTableReply::Count(0))
        );
        assert_eq!(
            KvTableObject::apply(&mut state, &KvTableOp::Get(9)),
            OpOutcome::Done(KvTableReply::Found(deep))
        );
        assert_eq!(
            KvTableObject::apply(&mut state, &KvTableOp::Get(10)),
            OpOutcome::Done(KvTableReply::Missing)
        );
        KvTableObject::apply(&mut state, &KvTableOp::Clear);
        assert!(state.is_empty());
    }

    #[test]
    fn shard_split_is_disjoint_and_route_consistent() {
        let entry = TableEntry::default();
        let state: BTreeMap<u64, TableEntry> = (0..32u64).map(|k| (k, entry)).collect();
        let split = KvTableObject::split_state(state.clone(), 4);
        assert_eq!(split.len(), 4);
        assert_eq!(split.iter().map(BTreeMap::len).sum::<usize>(), 32);
        assert_eq!(KvTableObject::merge_states(split.clone()), state);
        for (p, sub) in split.iter().enumerate() {
            for &key in sub.keys() {
                assert_eq!(
                    KvTableObject::route(&KvTableOp::Get(key), 4),
                    ShardRoute::One(p as u32)
                );
                assert_eq!(
                    KvTableObject::route(&KvTableOp::Put { key, entry }, 4),
                    ShardRoute::One(p as u32)
                );
            }
        }
        assert_eq!(KvTableObject::route(&KvTableOp::Len, 4), ShardRoute::All);
        assert_eq!(
            KvTableObject::combine(
                &KvTableOp::Len,
                vec![KvTableReply::Count(7), KvTableReply::Count(9)]
            ),
            KvTableReply::Count(16)
        );
        assert_eq!(
            KvTableObject::combine(
                &KvTableOp::Clear,
                vec![KvTableReply::Count(0), KvTableReply::Count(0)]
            ),
            KvTableReply::Count(0)
        );
        // Single-partition split is the identity.
        assert_eq!(KvTableObject::split_state(state.clone(), 1), vec![state]);
    }

    #[test]
    fn codec_round_trips() {
        let entry = TableEntry {
            depth: 3,
            value: -7,
            aux: 42,
        };
        assert_eq!(TableEntry::from_bytes(&entry.to_bytes()).unwrap(), entry);
        for op in [
            KvTableOp::Put { key: 1, entry },
            KvTableOp::Get(2),
            KvTableOp::Len,
            KvTableOp::Clear,
        ] {
            assert_eq!(KvTableOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for reply in [
            KvTableReply::Found(entry),
            KvTableReply::Missing,
            KvTableReply::Count(2),
        ] {
            assert_eq!(KvTableReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }
}
