//! The shared data-object model.
//!
//! A *shared data-object* is an instance of an abstract data type: some
//! encapsulated state plus a set of operations. Processes never touch the
//! state directly — every access goes through an operation, which is what
//! lets the runtime system interpose, keep replicas consistent and ship
//! operations across the network (§2 of the paper).
//!
//! This crate defines the model only; the runtime systems that replicate
//! objects live in `orca-rts` and the user-facing typed API in `orca-core`.
//!
//! * [`ObjectType`] — the trait an abstract data type implements: a state
//!   type, an operation type, a reply type, a read/write classification and
//!   a deterministic `apply` function. Operations may *block* (Orca's guard
//!   mechanism): `apply` returns [`OpOutcome::Blocked`] without changing the
//!   state, and the runtime retries the operation when the object changes.
//! * [`Replica`] / [`AnyReplica`] — a concrete copy of an object's state on
//!   one node, usable through a type-erased interface so the runtime can
//!   manage objects of many types uniformly and ship encoded operations.
//! * [`ObjectRegistry`] — maps type names to replica factories so that a
//!   node can instantiate a replica from a network message (type name +
//!   encoded state).
//! * [`shard`] — partitioning logic for shardable types: how a state splits
//!   into partitions, how operations route to them, and how per-partition
//!   replies combine. Used by the sharded runtime system of `orca-rts`.

pub mod id;
pub mod registry;
pub mod replica;
pub mod shard;
pub mod testing;

pub use id::{ObjectDescriptor, ObjectId};
pub use registry::ObjectRegistry;
pub use replica::{AnyReplica, AppliedOutcome, Gated, Replica};
pub use shard::{ShardAdapter, ShardLogic, ShardRoute, ShardableType};

use orca_wire::Wire;

/// Classification of an operation.
///
/// Reads never modify the object and may therefore be executed on any local
/// replica without communication; writes must be ordered by the runtime
/// system and applied at every replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Operation that does not change the state of its object.
    Read,
    /// Operation that (potentially) changes the state of its object.
    Write,
}

/// Result of applying an operation to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome<R> {
    /// The operation executed; the reply is returned to the invoker.
    Done(R),
    /// The operation's guard was false: nothing happened, and the invoker
    /// must retry after the object has been modified (Orca blocks the
    /// calling process until then).
    Blocked,
}

impl<R> OpOutcome<R> {
    /// True if the operation completed.
    pub fn is_done(&self) -> bool {
        matches!(self, OpOutcome::Done(_))
    }

    /// Unwrap the reply, panicking on [`OpOutcome::Blocked`].
    pub fn unwrap(self) -> R {
        match self {
            OpOutcome::Done(reply) => reply,
            OpOutcome::Blocked => panic!("operation blocked"),
        }
    }
}

/// Errors of the object layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// An encoded operation or state could not be decoded.
    Codec(String),
    /// The requested object type is not registered on this node.
    UnknownType(String),
    /// The requested object does not exist.
    NoSuchObject(ObjectId),
    /// A read-classified operation attempted to modify state (programming
    /// error in an `ObjectType` implementation, caught in debug assertions).
    ReadModifiedState,
}

impl std::fmt::Display for ObjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectError::Codec(msg) => write!(f, "codec error: {msg}"),
            ObjectError::UnknownType(name) => write!(f, "unknown object type: {name}"),
            ObjectError::NoSuchObject(id) => write!(f, "no such object: {id:?}"),
            ObjectError::ReadModifiedState => {
                write!(f, "read-classified operation modified object state")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

/// An abstract data type usable as a shared data-object.
///
/// Implementations must satisfy two semantic requirements that the runtime
/// relies on:
///
/// 1. **Determinism.** `apply` must be a pure function of `(state, op)`: the
///    broadcast runtime system applies the same operation independently on
///    every replica and the replicas must stay identical.
/// 2. **Honest classification.** Operations classified [`OpKind::Read`] must
///    not modify the state; the runtime executes them locally without any
///    ordering.
pub trait ObjectType: Send + Sync + 'static {
    /// The encapsulated state of the object.
    type State: Clone + Send + Sync + Wire + 'static;
    /// The operations of the abstract data type (usually an enum).
    type Op: Clone + Send + Sync + Wire + 'static;
    /// The value returned to the invoker of an operation.
    type Reply: Clone + Send + Sync + Wire + 'static;

    /// Globally unique name of the type, used by the [`ObjectRegistry`].
    const TYPE_NAME: &'static str;

    /// Classify an operation.
    fn kind(op: &Self::Op) -> OpKind;

    /// Apply an operation to the state, returning a reply or blocking.
    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        let done: OpOutcome<u32> = OpOutcome::Done(7);
        assert!(done.is_done());
        assert_eq!(done.unwrap(), 7);
        let blocked: OpOutcome<u32> = OpOutcome::Blocked;
        assert!(!blocked.is_done());
    }

    #[test]
    #[should_panic(expected = "operation blocked")]
    fn unwrap_blocked_panics() {
        let blocked: OpOutcome<u32> = OpOutcome::Blocked;
        let _ = blocked.unwrap();
    }

    #[test]
    fn error_display() {
        assert!(ObjectError::UnknownType("Foo".into())
            .to_string()
            .contains("Foo"));
        assert!(ObjectError::NoSuchObject(ObjectId(4))
            .to_string()
            .contains('4'));
    }
}
