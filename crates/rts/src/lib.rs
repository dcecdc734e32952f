//! Shared-object runtime systems.
//!
//! The runtime system (RTS) is the piece of system software that makes
//! replicated shared data-objects look like they live in one big shared
//! memory (§3.2 of the paper). Two very different runtime systems are
//! implemented here behind one common interface — the paper's two, the
//! second generalized:
//!
//! * [`BroadcastRts`] — used when the network broadcasts: every object is
//!   replicated on every node, reads are local, and writes are shipped as
//!   operations through the totally-ordered broadcast of `orca-group` and
//!   applied everywhere in the same order (sequential consistency).
//! * [`AdaptiveRts`] — used when there is no broadcast: operations travel
//!   point to point, and the regime is a *per-object, dynamic* property. An
//!   object is replicated (one authoritative copy where it is written,
//!   mirrors where it is read, kept current by a **two-phase update** or
//!   **invalidated** — [`WritePolicy`]) or sharded (partitions owned by the
//!   nodes that use it, so writes to different partitions proceed in
//!   parallel), and its home node moves it, regime and nodes, to where the
//!   usage every node reports says it costs the fewest messages; the
//!   [`adaptive`] module tells how nodes agree on a switch and lose no write
//!   across it. With the regime pinned ([`AdaptivePolicy::pin`]) the same
//!   engine is two more backends: pinned to replicated
//!   ([`AdaptivePolicy::primary_copy`]) the paper's **primary copy** runtime
//!   system ([`RtsKind::PrimaryUpdate`] / [`RtsKind::PrimaryInvalidate`]),
//!   pinned to sharded ([`AdaptivePolicy::sharded`]) the **sharded** backend
//!   ([`RtsKind::Sharded`]).
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
//! boolean array shard; the integer, boolean flag and barrier (single atomic
//! values) are one copy under either pin. With one partition the sharded
//! backend is observationally the primary-copy one: the cross-RTS
//! conformance suite (`tests/conformance.rs`) checks all of this, the
//! adaptive system run eagerly so objects move *during* the workload.
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
use orca_object::{AnyReplica, ObjectError, ObjectId, OpKind};
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

    /// Create a shared object of a registered type from its initial state,
    /// which arrives as a value — a replica of the state the creating
    /// process holds — and is encoded only for the nodes it ships to.
    /// Returns its id once the object is usable on this node.
    fn create_object(&self, initial: Box<dyn AnyReplica>) -> Result<ObjectId, RtsError>;

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

/// The one wait for a copy to change, in both engines — a false guard's above
/// all: park on `changed`, the condition variable of the mutex `copy` holds,
/// while `unchanged` says the copy is as it was, until `until` if given. True
/// when it changed.
pub(crate) fn await_change<T>(
    changed: &parking_lot::Condvar,
    copy: &mut parking_lot::MutexGuard<'_, T>,
    until: Option<std::time::Instant>,
    unchanged: impl Fn(&T) -> bool,
) -> bool {
    let now = std::time::Instant::now;
    while unchanged(copy) && until.is_none_or(|until| now() < until) {
        let left = until.map(|until| until.saturating_duration_since(now()));
        changed.wait_for(copy, left.unwrap_or(std::time::Duration::MAX));
    }
    !unchanged(copy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_object::testing::{Accumulator, Bank, EventLog};
    use orca_object::ObjectRegistry;

    /// `create_object` of an encoded initial state, for the unit tests:
    /// instantiated first, the way a state that arrives off the wire is.
    pub(crate) trait CreateEncoded: RuntimeSystem {
        fn create_encoded(&self, type_name: &str, state: &[u8]) -> Result<ObjectId, RtsError> {
            let mut registry = ObjectRegistry::new();
            registry.register::<Accumulator>().register::<EventLog>();
            registry.register_sharded::<Bank>();
            self.create_object(registry.instantiate(type_name, state)?)
        }
    }

    impl<R: RuntimeSystem + ?Sized> CreateEncoded for R {}

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
