//! Partitioning logic for shardable object types.
//!
//! The sharded runtime system (`orca-rts`) splits one logical shared object
//! into `N` partitions, each owned by a single node, so that writes to
//! different partitions proceed in parallel. Whether — and how — a type can
//! be split is a property of the abstract data type itself, so the logic
//! lives here in the object layer:
//!
//! * [`ShardableType`] is the typed trait an [`ObjectType`] implements to
//!   opt into sharding: how to split an initial state, how an operation maps
//!   onto partitions ([`ShardRoute`]), how to rewrite an operation for one
//!   partition, and how to combine per-partition replies.
//! * [`ShardLogic`] is the type-erased counterpart the runtime system uses
//!   (it only ever sees encoded states, operations and replies); the blanket
//!   adapter [`ShardAdapter`] derives it from any [`ShardableType`].
//! * [`ObjectRegistry::register_sharded`](crate::ObjectRegistry::register_sharded)
//!   records the logic next to the replica factory, so a runtime system can
//!   ask "does this type shard?" by name.
//!
//! The hash helpers at the bottom are deliberately seed-free and stable
//! across runs and platforms: partition placement must be deterministic so
//! that every node routes an operation to the same owner without
//! coordination, and so that simulation runs are reproducible.

use std::marker::PhantomData;
use std::sync::Arc;

use orca_wire::Wire;

use crate::{AnyReplica, ObjectError, ObjectType, OpOutcome, Replica};

/// How an operation maps onto the partitions of a sharded object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// The operation addresses exactly one partition (key-addressed reads
    /// and writes). It executes at that partition's owner only.
    One(u32),
    /// The operation must run on every partition (possibly rewritten per
    /// partition with [`ShardableType::op_for`]); the per-partition replies
    /// are merged with [`ShardableType::combine`].
    All,
    /// The operation is tried on partitions one at a time until one
    /// *accepts* it ([`ShardableType::accepts`]) — the work-stealing scan
    /// used by blocking dequeue-style operations. It blocks only while no
    /// partition accepts and at least one partition's guard is false.
    Any,
}

/// An abstract data type that can be split into independently-synchronized
/// partitions.
///
/// Implementations must preserve the type's sequential semantics in the
/// degenerate single-partition case: with `parts == 1`, `split_state` must
/// return the original state, every route must resolve to partition 0, and
/// `combine` over a single reply must be the identity. The conformance suite
/// relies on this to prove the sharded runtime system equivalent to the
/// primary-copy one.
pub trait ShardableType: ObjectType {
    /// Split a state into `parts` partition states, moving its entries.
    /// Must return exactly `parts` elements whose union is the original
    /// state, and be the inverse of [`ShardableType::merge_states`] on what
    /// it returns: `split_state(merge_states(parts), n) == parts` — so a
    /// runtime system may move drained partitions as they are instead of
    /// merging and splitting them again.
    fn split_state(state: Self::State, parts: u32) -> Vec<Self::State>;

    /// Recombine partition states (given in partition order) into one
    /// whole-object state — the inverse of [`ShardableType::split_state`]:
    /// `merge_states(split_state(s, n))` must be semantically equal to `s`.
    /// Used when a runtime system collapses a sharded object back into a
    /// single replica (e.g. an adaptive regime switch).
    fn merge_states(parts: Vec<Self::State>) -> Self::State;

    /// Classify an operation's partition routing.
    fn route(op: &Self::Op, parts: u32) -> ShardRoute;

    /// The operation to actually execute on `partition` (identity by
    /// default). Used to narrow batched writes to a partition's share and to
    /// remap global indices to partition-local ones.
    fn op_for(op: &Self::Op, partition: u32, parts: u32) -> Self::Op {
        let _ = (partition, parts);
        op.clone()
    }

    /// Merge the per-partition replies of an [`ShardRoute::All`] operation,
    /// given in partition order.
    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply;

    /// For an [`ShardRoute::Any`] operation: did this partition *accept* the
    /// operation (stop the scan), or should the next partition be tried?
    fn accepts(op: &Self::Op, reply: &Self::Reply) -> bool {
        let _ = (op, reply);
        true
    }
}

/// Type-erased partitioning logic, operating on encoded states, operations
/// and replies. This is what the runtime system stores and calls.
pub trait ShardLogic: Send + Sync {
    /// Split a replica's state into `parts` partition replicas, in memory:
    /// nothing is encoded or decoded. `whole` must be of this logic's type.
    fn split_replica(
        &self,
        whole: Box<dyn AnyReplica>,
        parts: u32,
    ) -> Result<Vec<Box<dyn AnyReplica>>, ObjectError>;

    /// Split an encoded state into `parts` encoded partition states:
    /// [`ShardLogic::split_replica`] of the replica it decodes to.
    fn split_state(&self, state: &[u8], parts: u32) -> Result<Vec<Vec<u8>>, ObjectError>;

    /// Recombine encoded partition states (partition order) into one
    /// encoded whole-object state.
    fn merge_states(&self, parts: Vec<Vec<u8>>) -> Result<Vec<u8>, ObjectError>;

    /// Route an encoded operation.
    fn route(&self, op: &[u8], parts: u32) -> Result<ShardRoute, ObjectError>;

    /// Rewrite an encoded operation for one partition.
    fn op_for(&self, op: &[u8], partition: u32, parts: u32) -> Result<Vec<u8>, ObjectError>;

    /// Combine encoded per-partition replies (partition order) of an
    /// [`ShardRoute::All`] operation.
    fn combine(&self, op: &[u8], replies: Vec<Vec<u8>>) -> Result<Vec<u8>, ObjectError>;

    /// Whether an encoded reply means the partition accepted an
    /// [`ShardRoute::Any`] operation.
    fn accepts(&self, op: &[u8], reply: &[u8]) -> Result<bool, ObjectError>;

    /// Apply an encoded operation to a *typed* state encoded in `state`,
    /// returning the updated state and outcome. Only used by unit tests to
    /// validate shard logic without a full runtime; runtime systems apply
    /// operations through replicas instead.
    fn apply_to_state(
        &self,
        state: &[u8],
        op: &[u8],
    ) -> Result<(Vec<u8>, Option<Vec<u8>>), ObjectError>;
}

fn codec<T>(err: orca_wire::WireError) -> ObjectError {
    ObjectError::Codec(format!("{}: {err}", std::any::type_name::<T>()))
}

/// Adapter deriving type-erased [`ShardLogic`] from a [`ShardableType`].
pub struct ShardAdapter<T: ShardableType>(PhantomData<fn() -> T>);

impl<T: ShardableType> Default for ShardAdapter<T> {
    fn default() -> Self {
        ShardAdapter(PhantomData)
    }
}

impl<T: ShardableType> ShardAdapter<T> {
    /// Create a shareable instance of the adapter.
    pub fn shared() -> Arc<dyn ShardLogic> {
        Arc::new(ShardAdapter::<T>::default())
    }
}

impl<T: ShardableType> ShardLogic for ShardAdapter<T> {
    fn split_replica(
        &self,
        whole: Box<dyn AnyReplica>,
        parts: u32,
    ) -> Result<Vec<Box<dyn AnyReplica>>, ObjectError> {
        let name = whole.type_name();
        let whole = whole.into_any().downcast::<Replica<T>>().map_err(|_| {
            ObjectError::Codec(format!("a {name} replica split as {}", T::TYPE_NAME))
        })?;
        let split = T::split_state(whole.into_state(), parts);
        debug_assert_eq!(split.len(), parts as usize, "split_state arity");
        let replica = |state| Box::new(Replica::<T>::new(state)) as Box<dyn AnyReplica>;
        Ok(split.into_iter().map(replica).collect())
    }

    fn split_state(&self, state: &[u8], parts: u32) -> Result<Vec<Vec<u8>>, ObjectError> {
        let whole = T::State::from_bytes(state).map_err(codec::<T::State>)?;
        let split = self.split_replica(Box::new(Replica::<T>::new(whole)), parts)?;
        Ok(split.iter().map(|part| part.state_bytes()).collect())
    }

    fn merge_states(&self, parts: Vec<Vec<u8>>) -> Result<Vec<u8>, ObjectError> {
        let states = parts
            .iter()
            .map(|bytes| T::State::from_bytes(bytes).map_err(codec::<T::State>))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(T::merge_states(states).to_bytes())
    }

    fn route(&self, op: &[u8], parts: u32) -> Result<ShardRoute, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(codec::<T::Op>)?;
        Ok(T::route(&op, parts))
    }

    fn op_for(&self, op: &[u8], partition: u32, parts: u32) -> Result<Vec<u8>, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(codec::<T::Op>)?;
        Ok(T::op_for(&op, partition, parts).to_bytes())
    }

    fn combine(&self, op: &[u8], replies: Vec<Vec<u8>>) -> Result<Vec<u8>, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(codec::<T::Op>)?;
        let replies = replies
            .iter()
            .map(|bytes| T::Reply::from_bytes(bytes).map_err(codec::<T::Reply>))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(T::combine(&op, replies).to_bytes())
    }

    fn accepts(&self, op: &[u8], reply: &[u8]) -> Result<bool, ObjectError> {
        let op = T::Op::from_bytes(op).map_err(codec::<T::Op>)?;
        let reply = T::Reply::from_bytes(reply).map_err(codec::<T::Reply>)?;
        Ok(T::accepts(&op, &reply))
    }

    fn apply_to_state(
        &self,
        state: &[u8],
        op: &[u8],
    ) -> Result<(Vec<u8>, Option<Vec<u8>>), ObjectError> {
        let mut state = T::State::from_bytes(state).map_err(codec::<T::State>)?;
        let op = T::Op::from_bytes(op).map_err(codec::<T::Op>)?;
        let reply = match T::apply(&mut state, &op) {
            OpOutcome::Done(reply) => Some(reply.to_bytes()),
            OpOutcome::Blocked => None,
        };
        Ok((state.to_bytes(), reply))
    }
}

/// SplitMix64 finalizer: a strong, seed-free 64-bit mix used for partition
/// placement and integer keys. Stable across runs and platforms (unlike
/// `std`'s `RandomState`-seeded hashes), which keeps shard placement
/// deterministic.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic hashed-spread placement: the owner node of partition
/// `partition` of the object with raw id `object` on a pool of `nodes`
/// nodes. Consecutive partitions of one object land on distinct nodes and
/// different objects start at different offsets; every node computes the
/// same placement without coordination. Shared by the sharded and
/// adaptive runtime systems so the two always agree.
pub fn spread_owner(object: u64, partition: u32, nodes: usize) -> u16 {
    ((mix64(object) + u64::from(partition)) % nodes.max(1) as u64) as u16
}

/// Partition of an integer key.
pub fn shard_of_u64(key: u64, parts: u32) -> u32 {
    if parts <= 1 {
        return 0;
    }
    (mix64(key) % u64::from(parts)) as u32
}

/// Partition of a byte-string key (FNV-1a folded through [`mix64`]).
pub fn shard_of_bytes(key: &[u8], parts: u32) -> u32 {
    if parts <= 1 {
        return 0;
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (mix64(hash) % u64::from(parts)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Bank, BankOp, BankReply};

    #[test]
    fn hashes_are_stable_and_in_range() {
        // Pin a few values so an accidental change to the mix shows up: the
        // placement of existing simulations must not silently change.
        assert_eq!(mix64(0), 0);
        assert_eq!(shard_of_u64(7, 1), 0);
        for parts in [1u32, 2, 4, 8, 13] {
            for key in 0..200u64 {
                assert!(shard_of_u64(key, parts) < parts);
            }
            for len in 0..16usize {
                let bytes: Vec<u8> = (0..len as u8).collect();
                assert!(shard_of_bytes(&bytes, parts) < parts);
            }
        }
        // Distribution sanity: 256 keys over 4 partitions should not
        // collapse onto fewer than 4.
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..256u64 {
            seen.insert(shard_of_u64(key, 4));
        }
        assert_eq!(seen.len(), 4);
        // Placement spreads consecutive partitions over distinct nodes.
        for object in [1u64, 7, 1 << 48] {
            let owners: std::collections::BTreeSet<u16> =
                (0..4).map(|p| spread_owner(object, p, 4)).collect();
            assert_eq!(owners.len(), 4);
            assert!(owners.iter().all(|&o| usize::from(o) < 4));
        }
    }

    #[test]
    fn adapter_round_trips_typed_logic() {
        let logic = ShardAdapter::<Bank>::shared();
        let state: <Bank as ObjectType>::State =
            (0..8u64).map(|k| (k, i64::try_from(k).unwrap())).collect();
        let parts = logic.split_state(&state.to_bytes(), 4).unwrap();
        assert_eq!(parts.len(), 4);

        // merge_states is the inverse of split_state (BTreeMap encoding is
        // canonical, so byte equality holds).
        assert_eq!(logic.merge_states(parts.clone()).unwrap(), state.to_bytes());

        // Every key lands in the partition its routed op targets.
        for key in 0..8u64 {
            let op = BankOp::Get(key).to_bytes();
            let ShardRoute::One(p) = logic.route(&op, 4).unwrap() else {
                panic!("Get must route to one partition");
            };
            let (_, reply) = logic.apply_to_state(&parts[p as usize], &op).unwrap();
            let reply = BankReply::from_bytes(&reply.unwrap()).unwrap();
            assert_eq!(reply, BankReply::Value(i64::try_from(key).unwrap()));
        }

        // Sum routes everywhere and combines to the full total.
        let sum_op = BankOp::Sum.to_bytes();
        assert_eq!(logic.route(&sum_op, 4).unwrap(), ShardRoute::All);
        let replies = parts
            .iter()
            .map(|p| {
                let (_, reply) = logic.apply_to_state(p, &sum_op).unwrap();
                reply.unwrap()
            })
            .collect();
        let combined = logic.combine(&sum_op, replies).unwrap();
        assert_eq!(
            BankReply::from_bytes(&combined).unwrap(),
            BankReply::Value((0..8i64).sum())
        );
    }

    #[test]
    fn a_replica_splits_in_memory_as_its_bytes_split() {
        let logic = ShardAdapter::<Bank>::shared();
        let state: <Bank as ObjectType>::State = (0..9u64).map(|k| (k, 2)).collect();
        let whole = Box::new(Replica::<Bank>::new(state.clone()));
        let parts = logic.split_replica(whole, 4).unwrap();
        let bytes: Vec<_> = parts.iter().map(|part| part.state_bytes()).collect();
        assert_eq!(bytes, logic.split_state(&state.to_bytes(), 4).unwrap());
        assert!(parts.iter().all(|part| part.type_name() == Bank::TYPE_NAME));
        // A replica of another type is refused, not split.
        let other = Box::new(Replica::<crate::testing::Accumulator>::new(1));
        assert!(matches!(
            logic.split_replica(other, 2),
            Err(ObjectError::Codec(_))
        ));
    }

    #[test]
    fn single_partition_split_is_identity() {
        let logic = ShardAdapter::<Bank>::shared();
        let state: <Bank as ObjectType>::State = (0..5u64).map(|k| (k, 1i64)).collect();
        let bytes = state.to_bytes();
        let parts = logic.split_state(&bytes, 1).unwrap();
        assert_eq!(parts, vec![bytes]);
        for key in 0..5u64 {
            assert_eq!(
                logic.route(&BankOp::Get(key).to_bytes(), 1).unwrap(),
                ShardRoute::One(0)
            );
        }
    }

    #[test]
    fn malformed_inputs_are_codec_errors() {
        let logic = ShardAdapter::<Bank>::shared();
        assert!(matches!(
            logic.route(&[0xff, 0xff], 2),
            Err(ObjectError::Codec(_))
        ));
        assert!(matches!(
            logic.split_state(&[0xff, 0xff, 0xff], 2),
            Err(ObjectError::Codec(_))
        ));
        assert!(matches!(
            logic.combine(&BankOp::Sum.to_bytes(), vec![vec![0xff, 0xff]]),
            Err(ObjectError::Codec(_))
        ));
    }
}
