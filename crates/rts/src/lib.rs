//! Shared-object runtime systems.
//!
//! The runtime system (RTS) is the piece of system software that makes
//! replicated shared data-objects look like they live in one big shared
//! memory (§3.2 of the paper). Two very different runtime systems are
//! implemented here behind one common interface — the paper's two, the
//! second generalized:
//!
//! * [`BroadcastRts`] — used when the network supports (hardware)
//!   broadcasting. Every object is fully replicated on all nodes. Read
//!   operations execute on the local replica without any communication;
//!   write operations are shipped (operation code + parameters) through the
//!   totally-ordered reliable broadcast of `orca-group` and applied by every
//!   node's object manager in exactly the same order, which yields
//!   sequential consistency.
//! * [`AdaptiveRts`] — used when there is no broadcast: operations travel
//!   point to point. It makes the regime a *per-object, dynamic* property.
//!   Each object is served, at any moment, in one of two regimes —
//!   replicated (one authoritative copy on a node that writes the object,
//!   mirrors on the nodes that read it, none where nobody does; a write is
//!   sent to the copy's owner, which either pushes a **two-phase update**
//!   to the mirrors or **invalidates** them — [`WritePolicy`]) or sharded
//!   (write-hot shardable: `N` partitions hashed over the
//!   nodes that use the object, each owned by one node, operations shipped
//!   point-to-point to the partition owner, so writes to different
//!   partitions proceed in parallel on different nodes) — and the object's
//!   home node switches regimes at runtime from the decayed per-node
//!   read/write counts every node reports. Nodes agree on the serving
//!   regime through an epoch in the home's regime table (cached tables,
//!   `StaleRegime` replies); a switch drains the old regime's replicas
//!   under a withdrawn mark, merges partition states where needed, and
//!   installs the new regime under the next epoch, so no write is lost or
//!   double-applied across a change.
//!
//!   With the regime *pinned* ([`AdaptivePolicy::pin`]) the same engine is
//!   two more backends; a pin fixes the regime, and placement is by use as
//!   without one. Pinned to replicated
//!   ([`AdaptivePolicy::primary_copy`]) it is the paper's **primary copy**
//!   runtime system ([`RtsKind::PrimaryUpdate`] /
//!   [`RtsKind::PrimaryInvalidate`]): one copy per object, at its creator
//!   until the object is used and then where it is written, and secondary
//!   copies created and discarded dynamically, where it is read — from the
//!   per-node read and write counts the object's home collects. Pinned to
//!   sharded ([`AdaptivePolicy::sharded`]) it is the **sharded** backend
//!   ([`RtsKind::Sharded`]): every object is created partitioned over all
//!   nodes, and its partitions then move to the nodes that access it; types
//!   without partitioning logic are one partition at their creating node.
//!
//! They trade consistency machinery against communication very
//! differently:
//!
//! | RTS | Replication | Write path | Consistency |
//! |-----|-------------|-----------|-------------|
//! | broadcast | full (every node) | totally-ordered broadcast, applied everywhere | sequential, object-wide |
//! | adaptive | per object: a copy where it is written + mirrors where it is read, or partitions | per object: RPC to the copy's owner (+ ordered update push to its mirrors, or their invalidation) or RPC to partition owner | sequential per object (per partition while sharded) |
//! | primary copy, update / invalidate (adaptive, pinned to replicated) | a copy where it is written + dynamic secondaries where it is read | RPC to the copy's owner, then 2-phase update or invalidation of the secondaries | sequential, object-wide |
//! | sharded (adaptive, pinned to sharded) | partitioned, one owner per partition, on the nodes that use it | point-to-point RPC to the partition owner | sequential *per partition* |
//!
//! Of the standard object library, the job queue, key-value table, set and
//! boolean array shard; the integer, boolean flag and barrier do not (they
//! are single atomic values): pinned, they are a single copy at their
//! creator, and left to adapt they are only ever offered the replicated
//! regime. With one partition the sharded backend is
//! observationally identical to the primary-copy one — the cross-RTS
//! conformance suite (`tests/conformance.rs`) checks all of this, and runs
//! the adaptive system with eager thresholds so regimes switch *during*
//! the conformance workload.
//!
//! All of them implement [`RuntimeSystem`], which is what the Orca layer
//! (`orca-core`) programs against.

#![warn(missing_docs)]

pub mod adaptive;
pub mod broadcast_rts;
pub mod pipeline;
// The tests of the two pinned backends sit beside the engine's own; their
// module names are the test ids CI loops over.
#[cfg(test)]
#[path = "adaptive/tests/pinned_replicated.rs"]
mod primary;
pub mod recovery;
#[doc(hidden)]
pub mod sabotage;
#[cfg(test)]
#[path = "adaptive/tests/pinned_sharded.rs"]
mod sharded;
pub mod stats;
mod update;

pub use adaptive::{AdaptivePolicy, AdaptiveRts, WritePolicy};
pub use broadcast_rts::BroadcastRts;
pub use orca_group::{FailureConfig, FailureDetector, ViewSnapshot};
pub use orca_wire::RegimeKind;
pub use pipeline::{BatchPolicy, PendingInvocation};
pub use recovery::RecoveryConfig;
pub use stats::{RtsStats, RtsStatsSnapshot};

use orca_amoeba::NodeId;
use orca_object::{ObjectError, ObjectId, OpKind};
use orca_wire::TraceId;

/// An asynchronously submitted operation: its read/write classification,
/// its encoded bytes, and the trace of the invocation that issued it.
pub type AsyncOp<'a> = (OpKind, &'a [u8], TraceId);

/// Errors surfaced by the runtime systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtsError {
    /// Problem with the object itself (unknown type, codec failure, ...).
    Object(ObjectError),
    /// The group-communication or RPC layer failed.
    Communication(String),
    /// The runtime system has been shut down.
    Terminated,
    /// An invocation did not complete within its deadline.
    Timeout,
    /// The invocation depended on a node the failure detector has declared
    /// dead (and, if re-homing is enabled, recovery did not produce a new
    /// home within the caller's deadline). Distinguishable from
    /// [`RtsError::Timeout`]: the node is *known killed*, not just slow.
    NodeDown(NodeId),
    /// The object's state did not survive a node failure: its
    /// authoritative copy lived on a dead node and no replica or mirror
    /// survived anywhere. Operations on it can never succeed.
    ObjectLost(ObjectId),
}

impl std::fmt::Display for RtsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtsError::Object(err) => write!(f, "object error: {err}"),
            RtsError::Communication(msg) => write!(f, "communication error: {msg}"),
            RtsError::Terminated => write!(f, "runtime system terminated"),
            RtsError::Timeout => write!(f, "operation timed out"),
            RtsError::NodeDown(node) => write!(f, "node down: {node}"),
            RtsError::ObjectLost(object) => write!(f, "object lost: {object}"),
        }
    }
}

impl std::error::Error for RtsError {}

impl From<ObjectError> for RtsError {
    fn from(err: ObjectError) -> Self {
        RtsError::Object(err)
    }
}

/// Which runtime system a node is running (used by configuration and by the
/// benchmark harness when sweeping over strategies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtsKind {
    /// Full replication with operation shipping over totally-ordered
    /// broadcast.
    Broadcast,
    /// Primary copy with invalidation of secondaries on writes: the
    /// adaptive runtime with every object's regime pinned to replicated.
    PrimaryInvalidate,
    /// Primary copy with two-phase updates of secondaries on writes: the
    /// same pin, the other write policy.
    PrimaryUpdate,
    /// Partitioned objects with owner-shipped operations: the adaptive
    /// runtime with every object's regime pinned to sharded.
    Sharded,
    /// Per-object regimes (replicated / sharded) picked and
    /// changed at runtime from each object's observed access mix.
    Adaptive,
}

impl RtsKind {
    /// Human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RtsKind::Broadcast => "broadcast",
            RtsKind::PrimaryInvalidate => "invalidate",
            RtsKind::PrimaryUpdate => "update",
            RtsKind::Sharded => "sharded",
            RtsKind::Adaptive => "adaptive",
        }
    }
}

/// The interface the Orca layer programs against: create objects and invoke
/// encoded operations on them, with the runtime system deciding where
/// replicas live and how writes propagate.
pub trait RuntimeSystem: Send + Sync {
    /// Node this runtime-system instance runs on.
    fn node(&self) -> NodeId;

    /// Number of nodes participating in the application.
    fn num_nodes(&self) -> usize;

    /// Create a shared object of registered type `type_name` with the given
    /// encoded initial state. Returns its id once the object is usable on
    /// this node (and, for the broadcast RTS, on every node).
    fn create_object(&self, type_name: &str, initial_state: &[u8]) -> Result<ObjectId, RtsError>;

    /// Invoke an encoded operation on an object, blocking until it completes
    /// (including waiting for a blocking operation's guard to become true).
    /// Returns the encoded reply.
    ///
    /// The caller supplies the object's registered type name and the
    /// operation's read/write classification; in Orca both are known
    /// statically at the call site (the compiler classifies operations), and
    /// passing them here lets the point-to-point runtime system handle
    /// objects it holds no local copy of.
    fn invoke(
        &self,
        object: ObjectId,
        type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError>;

    /// Submit encoded operations on one object *asynchronously*, in slice
    /// order, and return their completion handles at once: the slice enters
    /// the submission queue whole, and the runtime system ships it in as
    /// few rounds as [`BatchPolicy::max_batch`] allows, one batch per
    /// destination (see [`pipeline`] for the ordering and failure contracts).
    fn invoke_many(
        &self,
        object: ObjectId,
        type_name: &str,
        ops: &[AsyncOp<'_>],
    ) -> Vec<PendingInvocation>;

    /// Invoke one encoded operation asynchronously, under the thread's
    /// current trace: [`RuntimeSystem::invoke_many`] of one.
    fn invoke_async(
        &self,
        object: ObjectId,
        type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> PendingInvocation {
        let trace = orca_telemetry::trace::current();
        let mut handles = self.invoke_many(object, type_name, &[(kind, op, trace)]);
        handles.pop().expect("one handle per operation")
    }

    /// Snapshot of this node's runtime-system statistics.
    fn stats(&self) -> RtsStatsSnapshot;

    /// Which kind of runtime system this is.
    fn kind(&self) -> RtsKind;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(RtsKind::Broadcast.name(), "broadcast");
        assert_eq!(RtsKind::PrimaryInvalidate.name(), "invalidate");
        assert_eq!(RtsKind::PrimaryUpdate.name(), "update");
        assert_eq!(RtsKind::Sharded.name(), "sharded");
        assert_eq!(RtsKind::Adaptive.name(), "adaptive");
    }

    #[test]
    fn error_conversions_and_display() {
        let err: RtsError = ObjectError::UnknownType("X".into()).into();
        assert!(err.to_string().contains("X"));
        assert!(RtsError::Timeout.to_string().contains("timed out"));
    }
}
