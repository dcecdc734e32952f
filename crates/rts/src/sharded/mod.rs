//! The sharded runtime system: partitioned shared objects with
//! owner-shipped operations.
//!
//! Both runtime systems of the paper serialize every write to an object
//! through one global ordering point — the sequencer for the broadcast RTS,
//! the primary copy for the point-to-point RTS — which caps write throughput
//! no matter how many processors participate. This third runtime system
//! splits each *shardable* object (job queue, key-value table, set, boolean
//! array) into `N` partitions, each owned by exactly one node:
//!
//! * **Routing.** Operations are classified by the type's partitioning
//!   logic ([`orca_object::shard`]): key-addressed operations go
//!   point-to-point to the one partition owner responsible for the key;
//!   whole-object operations fan out to every partition and the replies are
//!   combined; dequeue-style blocking operations scan partitions until one
//!   accepts. The object's *home node* (its creator) holds the
//!   authoritative [`ShardRouteTable`]; every node caches it read-through
//!   (type name and partition count are immutable, owner assignments are
//!   invalidated by `StaleRoute` replies).
//! * **Consistency.** Each partition is sequentially consistent — its
//!   owner's replica mutex serializes all operations on it — but no order is
//!   enforced *across* partitions of one object: two writes to different
//!   partitions proceed in parallel on different nodes. This per-partition
//!   sequential consistency is exactly what makes write throughput scale
//!   with the partition count; with `N = 1` it degenerates to the
//!   primary-copy system's semantics (the conformance suite checks this).
//! * **Fallback.** Non-shardable types (integer, boolean, barrier) get a
//!   single "partition" at their home node and behave like primary-copy
//!   objects without secondary copies, so the full object-type surface
//!   keeps working.
//! * **Migration.** Owners track per-partition [`AccessStats`]; a hot
//!   partition can be handed to another owner ([`ShardedRts::migrate`],
//!   [`ShardedRts::rebalance`]) — the home node coordinates the hand-off,
//!   bumps the table version, and stale caches recover via
//!   `StaleRoute`-triggered re-fetches.
//! * **Deadlines.** Every owner-shipped RPC carries a per-invocation
//!   deadline ([`ShardPolicy::op_timeout`]); a dropped reply (crashed or
//!   partitioned owner) surfaces [`RtsError::Timeout`] instead of hanging
//!   the invoking process.

pub(crate) mod messages;
mod routing;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::node::ports;
use orca_amoeba::rpc::RpcServer;
use orca_amoeba::NodeId;
use orca_group::{FailureDetector, ViewSnapshot};
use orca_object::shard::spread_owner;
use orca_object::{AnyReplica, AppliedOutcome, ObjectError, ObjectId, ObjectRegistry, OpKind};
use orca_object::{ShardLogic, ShardRoute};
use orca_telemetry::{trace, FlightKind};
use orca_wire::{BatchOutcome, DedupWindow, OpBatchView, OpRef, OpStamp, Wire};
use parking_lot::{Mutex, RwLock};

use crate::pipeline::{
    pending_pair, resolve_round, BatchPolicy, PendingBatches, Pipeline, QueuedOp, RoundSlot,
};
use crate::recovery::{is_dead, recovery_rpc, RecoveryConfig};
use crate::stats::{AccessStats, RtsStats, RtsStatsSnapshot};
use crate::{PendingInvocation, RtsError, RtsKind, RuntimeSystem};
use messages::{part, part_object, ShardMsg, ShardPartId, ShardReply, ShardRouteTable};
use routing::RouteCache;

/// How partitions of a new object are placed on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlacement {
    /// Deterministic hashed spread: partition `p` of an object lands on
    /// node `(mix64(id) + p) mod nodes`, so consecutive partitions of one
    /// object go to distinct nodes and different objects start at different
    /// offsets. Deterministic given the object id — every node computes the
    /// same placement without coordination.
    Spread,
    /// All partitions start on the creating (home) node; migration is then
    /// the only way load spreads. Useful for experiments and for testing
    /// the rebalancer.
    Home,
}

/// Configuration of the sharded runtime system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Number of partitions per shardable object (non-shardable objects
    /// always get one).
    pub partitions: u32,
    /// Initial partition placement.
    pub placement: ShardPlacement,
    /// Per-invocation deadline for owner-shipped operations: an RPC whose
    /// reply does not arrive within this duration surfaces
    /// [`RtsError::Timeout`]. Guard retries (a `Blocked` reply *is* a
    /// reply) restart the deadline.
    pub op_timeout: Duration,
    /// Minimum recorded accesses before [`ShardedRts::rebalance`] considers
    /// a partition hot.
    pub rebalance_threshold: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            partitions: 4,
            placement: ShardPlacement::Spread,
            op_timeout: Duration::from_secs(10),
            rebalance_threshold: 64,
        }
    }
}

impl ShardPolicy {
    /// Policy with `partitions` partitions and defaults otherwise.
    pub fn with_partitions(partitions: u32) -> Self {
        ShardPolicy {
            partitions: partitions.max(1),
            ..ShardPolicy::default()
        }
    }
}

/// How long a caller sleeps before retrying an operation whose guard was
/// false at the owner.
const BLOCKED_RETRY_DELAY: Duration = Duration::from_millis(20);

/// How long a caller sleeps before re-fetching a route that turned out
/// stale (a migration is in flight).
const STALE_RETRY_DELAY: Duration = Duration::from_millis(5);

/// How long a caller sleeps between retries while a dead partition
/// owner's backups are being promoted.
const DEAD_OWNER_RETRY_DELAY: Duration = Duration::from_millis(20);

/// One partition replica held by its owner node.
struct PartitionSlot {
    replica: Mutex<Box<dyn AnyReplica>>,
    /// Set (under the replica mutex) when a hand-off has serialized this
    /// replica's state for transfer. An operation may have cloned the slot
    /// `Arc` out of `owned` before the hand-off removed it; without this
    /// flag such an operation would apply to the orphaned replica *after*
    /// the state snapshot, be acknowledged `Done`, and silently miss the
    /// new owner — a lost write. Readers check it after acquiring the
    /// replica mutex and answer `StaleRoute` instead.
    withdrawn: AtomicBool,
    /// Completed-write count the partition had accumulated *before* this
    /// replica instance was installed (migrations and promotions reset the
    /// replica-internal counter). The partition's cumulative version —
    /// what recovery compares — is `version_base + replica.version()`.
    version_base: u64,
    access: AccessStats,
    /// Replies of recently applied stamped writes, keyed per origin.
    /// Locked strictly *after* (and only while holding) the replica mutex,
    /// and travelling with the partition state across migrations,
    /// hand-offs, backups and promotions.
    dedup: Mutex<DedupWindow>,
}

impl PartitionSlot {
    fn new(replica: Box<dyn AnyReplica>) -> Arc<Self> {
        Self::with_base(replica, 0)
    }

    fn with_base(replica: Box<dyn AnyReplica>, version_base: u64) -> Arc<Self> {
        Self::with_parts(replica, version_base, DedupWindow::new())
    }

    fn with_parts(
        replica: Box<dyn AnyReplica>,
        version_base: u64,
        dedup: DedupWindow,
    ) -> Arc<Self> {
        Arc::new(PartitionSlot {
            replica: Mutex::new(replica),
            withdrawn: AtomicBool::new(false),
            version_base,
            access: AccessStats::default(),
            dedup: Mutex::new(dedup),
        })
    }
}

/// A backup replica of a partition owned elsewhere: the owner ships every
/// completed write here before acknowledging it, so a single owner failure
/// loses no acknowledged write.
struct BackupSlot {
    replica: Mutex<Box<dyn AnyReplica>>,
    /// Cumulative partition version of the backup state.
    version: AtomicU64,
    /// Dedup window, kept exactly as current as the backup replica (locked
    /// only while holding the replica mutex).
    dedup: Mutex<DedupWindow>,
}

/// Outcome of one attempt to execute an operation on one partition.
enum PartOutcome {
    Done(Vec<u8>),
    Blocked,
    Stale,
}

/// Home-node record of one object this node created.
struct HomeObject {
    /// The authoritative routing table. Held only for reads and short
    /// updates — never across an RPC, so `Route` requests cannot pile up
    /// on a worker that is mid-migration.
    table: Mutex<ShardRouteTable>,
    /// Serializes migrations of this object. Held across the hand-off
    /// RPC, which is why it is separate from `table`.
    migration: Mutex<()>,
}

struct Inner {
    node: NodeId,
    num_nodes: usize,
    handle: NetworkHandle,
    registry: ObjectRegistry,
    policy: ShardPolicy,
    /// Partitions this node currently owns.
    owned: RwLock<HashMap<(ObjectId, u32), Arc<PartitionSlot>>>,
    /// Backup replicas of partitions owned elsewhere (recovery enabled).
    backups: RwLock<HashMap<(ObjectId, u32), Arc<BackupSlot>>>,
    /// Authoritative routing tables of objects this node created (or
    /// adopted after their creator died).
    homes: RwLock<HashMap<ObjectId, Arc<HomeObject>>>,
    /// Read-through cache of other objects' routing tables.
    routes: RouteCache,
    next_object: AtomicU64,
    /// Mints the per-invocation dedup stamps of synchronous writes: a
    /// stamp is chosen once per invocation and reused verbatim by every
    /// retry, so an owner that already applied the write (or the backup
    /// promoted in its place) answers the recorded reply instead of
    /// applying it again.
    next_stamp: AtomicU64,
    /// Rotates the scan start of `Any`-routed operations so concurrent
    /// consumers do not all hammer partition 0.
    any_seq: AtomicU64,
    stats: Arc<RtsStats>,
    /// Crash-recovery knobs (see [`RecoveryConfig`]).
    recovery: RecoveryConfig,
    /// Heartbeat failure detector, present when recovery is enabled.
    detector: Option<Arc<FailureDetector>>,
    /// Objects declared lost (a partition died with no backup left).
    lost: RwLock<HashSet<ObjectId>>,
    /// Serializes home adoptions on this node.
    adoption: Mutex<()>,
    /// Batching knobs of the asynchronous path.
    batch_policy: Arc<Mutex<BatchPolicy>>,
    /// Set by [`ShardedRts::shutdown`]; the asynchronous round executor's
    /// stale-retry loop observes it so `Pipeline::shutdown`'s join stays
    /// prompt instead of riding out the full round deadline.
    stopped: AtomicBool,
}

impl Inner {
    fn is_lost(&self, object: ObjectId) -> bool {
        self.lost.read().contains(&object)
    }
}

/// Handle to one node's sharded runtime system. Cheap to clone.
#[derive(Clone)]
pub struct ShardedRts {
    inner: Arc<Inner>,
    server: Arc<Mutex<Option<RpcServer>>>,
    backup_server: Arc<Mutex<Option<RpcServer>>>,
    /// Asynchronous-invocation pipeline, started lazily on first use and
    /// shared by all clones of this handle.
    pipeline: Arc<Mutex<Option<Arc<Pipeline>>>>,
}

impl std::fmt::Debug for ShardedRts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRts")
            .field("node", &self.inner.node)
            .field("partitions", &self.inner.policy.partitions)
            .finish()
    }
}

impl ShardedRts {
    /// Start the sharded runtime system on the node owning `handle`
    /// (without crash recovery — node failures surface as timeouts).
    pub fn start(handle: NetworkHandle, registry: ObjectRegistry, policy: ShardPolicy) -> Self {
        Self::start_recoverable(handle, registry, policy, RecoveryConfig::disabled(), None)
    }

    /// Start the runtime system with crash recovery: every partition gets a
    /// synchronously maintained backup replica on a second node, a dead
    /// owner's partitions are re-owned by promoting their backups, and a
    /// dead *home* node's routing table is rebuilt by the lowest live node
    /// from the survivors' reports (see the `recovery` module docs).
    pub fn start_recoverable(
        handle: NetworkHandle,
        registry: ObjectRegistry,
        policy: ShardPolicy,
        recovery: RecoveryConfig,
        detector: Option<Arc<FailureDetector>>,
    ) -> Self {
        let detector = crate::recovery::ensure_detector(&handle, &recovery, detector);
        let inner = Arc::new(Inner {
            node: handle.node(),
            num_nodes: handle.num_nodes(),
            handle: handle.clone(),
            registry,
            policy,
            owned: RwLock::new(HashMap::new()),
            backups: RwLock::new(HashMap::new()),
            homes: RwLock::new(HashMap::new()),
            routes: RouteCache::default(),
            next_object: AtomicU64::new(1),
            next_stamp: AtomicU64::new(1),
            any_seq: AtomicU64::new(0),
            stats: RtsStats::new_shared(),
            recovery,
            detector,
            lost: RwLock::new(HashSet::new()),
            adoption: Mutex::new(()),
            batch_policy: Arc::new(Mutex::new(BatchPolicy::default())),
            stopped: AtomicBool::new(false),
        });
        let service_inner = Arc::clone(&inner);
        let server =
            RpcServer::serve_concurrent(handle.clone(), ports::RTS_SHARD, move |body, caller| {
                serve_request(&service_inner, body, caller)
            });
        // Backup and recovery traffic lives on its own port, so a backup
        // apply never queues behind the operations whose owners are
        // waiting for its acknowledgement.
        let backup_server = if recovery.enabled {
            let backup_inner = Arc::clone(&inner);
            Some(RpcServer::serve_concurrent(
                handle,
                ports::RTS_SHARD_BACKUP,
                move |body, caller| serve_backup_request(&backup_inner, body, caller),
            ))
        } else {
            None
        };
        if recovery.enabled && recovery.rehome {
            if let Some(detector) = &inner.detector {
                let home_inner = Arc::clone(&inner);
                detector.on_failure(Box::new(move |_dead, view| {
                    let inner = Arc::clone(&home_inner);
                    std::thread::Builder::new()
                        .name(format!("shard-recovery-{}", inner.node))
                        .spawn(move || recover_home_objects(&inner, view))
                        .expect("spawn shard recovery thread");
                }));
            }
        }
        ShardedRts {
            inner,
            server: Arc::new(Mutex::new(Some(server))),
            backup_server: Arc::new(Mutex::new(backup_server)),
            pipeline: Arc::new(Mutex::new(None)),
        }
    }

    /// Stop the RPC services of this node. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
        if let Some(pipeline) = self.pipeline.lock().take() {
            pipeline.shutdown();
        }
        if let Some(server) = self.server.lock().take() {
            server.shutdown();
        }
        if let Some(server) = self.backup_server.lock().take() {
            server.shutdown();
        }
        if let Some(detector) = &self.inner.detector {
            detector.shutdown();
        }
    }

    /// The current membership view, when recovery is enabled.
    pub fn membership_view(&self) -> Option<ViewSnapshot> {
        self.inner.detector.as_ref().map(|d| d.view())
    }

    /// Initial owner of partition `partition` of `object`.
    fn place(&self, object: ObjectId, partition: u32) -> u16 {
        match self.inner.policy.placement {
            ShardPlacement::Spread => spread_owner(object.0, partition, self.inner.num_nodes),
            ShardPlacement::Home => object.creator_index(),
        }
    }

    /// Partition indices of `object` this node currently owns.
    pub fn owned_partitions(&self, object: ObjectId) -> Vec<u32> {
        let mut partitions: Vec<u32> = self
            .inner
            .owned
            .read()
            .keys()
            .filter(|(obj, _)| *obj == object)
            .map(|(_, p)| *p)
            .collect();
        partitions.sort_unstable();
        partitions
    }

    /// Access totals of the partitions of `object` this node owns, as
    /// `(partition, recorded operations)` pairs sorted by partition.
    pub fn partition_access(&self, object: ObjectId) -> Vec<(u32, u64)> {
        let mut totals: Vec<(u32, u64)> = self
            .inner
            .owned
            .read()
            .iter()
            .filter(|((obj, _), _)| *obj == object)
            .map(|((_, p), slot)| (*p, slot.access.total()))
            .collect();
        totals.sort_unstable();
        totals
    }

    /// Current owner of every partition of `object`, freshly fetched from
    /// the home node (bypassing this node's cache).
    pub fn route_owners(&self, object: ObjectId) -> Result<Vec<NodeId>, RtsError> {
        self.inner.routes.invalidate(object);
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let table = self.route_for(object, deadline)?;
        Ok(table.owners.iter().map(|&o| NodeId(o)).collect())
    }

    /// Move one partition of `object` to node `dst`. The object's home node
    /// coordinates the hand-off; callers on any node may request it.
    pub fn migrate(&self, object: ObjectId, partition: u32, dst: NodeId) -> Result<(), RtsError> {
        let msg = ShardMsg::Migrate {
            shard: part(object, partition),
            dst: dst.0,
        };
        let home = NodeId(object.creator_index());
        let reply = if home == self.inner.node {
            dispatch(&self.inner, msg, self.inner.node)
        } else {
            let deadline = Instant::now() + self.inner.policy.op_timeout;
            self.rpc(home, &msg, deadline)?
        };
        match reply {
            ShardReply::Ack => Ok(()),
            ShardReply::Error(msg) => Err(RtsError::Communication(msg)),
            other => Err(RtsError::Communication(format!(
                "unexpected Migrate reply {other:?}"
            ))),
        }
    }

    /// Rebalance `object` from this node's point of view: if its hottest
    /// locally-owned partition has seen at least
    /// [`ShardPolicy::rebalance_threshold`] operations and some node owns
    /// at least two partitions fewer than this node, migrate the hot
    /// partition there. Returns the move that was made, if any.
    pub fn rebalance(&self, object: ObjectId) -> Result<Option<(u32, NodeId)>, RtsError> {
        let hot = self
            .partition_access(object)
            .into_iter()
            .max_by_key(|(_, total)| *total);
        let Some((partition, total)) = hot else {
            return Ok(None);
        };
        if total < self.inner.policy.rebalance_threshold {
            return Ok(None);
        }
        let owners = self.route_owners(object)?;
        let mut counts = vec![0usize; self.inner.num_nodes];
        for owner in &owners {
            counts[owner.index()] += 1;
        }
        let mine = counts[self.inner.node.index()];
        let (best, best_count) = counts
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, count)| *count)
            .expect("at least one node");
        if best_count + 1 >= mine {
            return Ok(None);
        }
        let dst = NodeId::from(best);
        self.migrate(object, partition, dst)?;
        Ok(Some((partition, dst)))
    }

    /// Routing table for `object`, from the cache or read through from the
    /// home node. When the creating node is dead, the home role falls to
    /// the lowest live node, which rebuilds the table from the survivors'
    /// partition reports on first contact.
    fn route_for(
        &self,
        object: ObjectId,
        deadline: Instant,
    ) -> Result<Arc<ShardRouteTable>, RtsError> {
        if self.inner.is_lost(object) {
            return Err(RtsError::ObjectLost(object));
        }
        if let Some(table) = self.inner.routes.get(object) {
            return Ok(table);
        }
        let creator = NodeId(object.creator_index());
        let home = if is_dead(&self.inner.detector, creator) && self.inner.recovery.rehome {
            match self
                .inner
                .detector
                .as_ref()
                .and_then(|d| crate::recovery::recovery_home(&d.view()))
            {
                Some(adopter) => adopter,
                None => return Err(RtsError::NodeDown(creator)),
            }
        } else {
            creator
        };
        let table = if home == self.inner.node {
            // Bound separately so the `homes` read guard drops before the
            // adoption path below takes the write lock (an `if let` on the
            // guard's temporary would keep it alive through the whole
            // chain and self-deadlock).
            let known = self.inner.homes.read().get(&object).cloned();
            if let Some(entry) = known {
                entry.table.lock().clone()
            } else if home != creator {
                // This node is the adopter of a dead creator's home role.
                match adopt_home(&self.inner, object) {
                    Ok(entry) => entry.table.lock().clone(),
                    Err(reply) => return Err(adoption_error(&self.inner, object, reply)),
                }
            } else {
                return Err(RtsError::Object(ObjectError::NoSuchObject(object)));
            }
        } else {
            match self.rpc(home, &ShardMsg::Route { object: object.0 }, deadline)? {
                ShardReply::Route(table) => table,
                ShardReply::ObjectLost => {
                    self.inner.lost.write().insert(object);
                    return Err(RtsError::ObjectLost(object));
                }
                ShardReply::Error(msg) if home != creator => {
                    // The adopter may not have declared the creator dead
                    // yet; surface as NodeDown so the invocation loop
                    // retries (bounded by its deadline).
                    let _ = msg;
                    return Err(RtsError::NodeDown(creator));
                }
                ShardReply::Error(msg) => return Err(RtsError::Communication(msg)),
                other => {
                    return Err(RtsError::Communication(format!(
                        "unexpected Route reply {other:?}"
                    )))
                }
            }
        };
        let table = Arc::new(table);
        self.inner.routes.insert(object, Arc::clone(&table));
        Ok(table)
    }

    /// Send a shard request to `dst`, bounded by `deadline`.
    fn rpc(&self, dst: NodeId, msg: &ShardMsg, deadline: Instant) -> Result<ShardReply, RtsError> {
        let reply = recovery_rpc(
            &self.inner.handle,
            &self.inner.detector,
            &self.inner.recovery,
            dst,
            ports::RTS_SHARD,
            msg.to_bytes(),
            deadline,
        )?;
        ShardReply::from_bytes(&reply)
            .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
    }

    /// Execute an encoded operation on one partition (locally if this node
    /// owns it, otherwise shipped to the owner).
    fn partition_op(
        &self,
        table: &ShardRouteTable,
        partition: u32,
        op: &[u8],
        kind: OpKind,
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let owner = NodeId(table.owners[partition as usize]);
        let object = ObjectId(table.object);
        if owner == self.inner.node {
            let slot = self.inner.owned.read().get(&(object, partition)).cloned();
            let Some(slot) = slot else {
                // We believed we own this partition but it has migrated
                // away; the caller re-fetches the route.
                return Ok(PartOutcome::Stale);
            };
            let mut replica = slot.replica.lock();
            if slot.withdrawn.load(Ordering::Relaxed) {
                // A hand-off serialized this replica's state while we were
                // waiting for the lock; applying now would lose the write.
                return Ok(PartOutcome::Stale);
            }
            match kind {
                OpKind::Read => slot.access.record_read(),
                OpKind::Write => slot.access.record_write(),
            }
            if let Some(stamp) = stamp {
                if let Some(reply) = slot.dedup.lock().lookup(stamp) {
                    return Ok(PartOutcome::Done(reply.to_vec()));
                }
            }
            match replica.apply_encoded(op)? {
                AppliedOutcome::Done(reply) => {
                    if kind == OpKind::Write {
                        let stamped = stamp.map(|s| (s, reply.clone()));
                        if let Some((stamp, reply)) = &stamped {
                            slot.dedup.lock().record(*stamp, reply.clone());
                        }
                        ship_backup(
                            &self.inner,
                            object,
                            partition,
                            &slot,
                            &**replica,
                            op,
                            stamped,
                        );
                    }
                    Ok(PartOutcome::Done(reply))
                }
                AppliedOutcome::Blocked => Ok(PartOutcome::Blocked),
            }
        } else {
            let msg = ShardMsg::Op {
                shard: part(object, partition),
                op: op.to_vec(),
                stamp,
            };
            match self.rpc(owner, &msg, deadline)? {
                ShardReply::Done(reply) => Ok(PartOutcome::Done(reply)),
                ShardReply::Blocked => Ok(PartOutcome::Blocked),
                ShardReply::StaleRoute => Ok(PartOutcome::Stale),
                ShardReply::Error(msg) => Err(RtsError::Communication(msg)),
                other => Err(RtsError::Communication(format!(
                    "unexpected Op reply {other:?}"
                ))),
            }
        }
    }

    /// Run an `All`-routed operation: every partition executes its share,
    /// the replies are combined in partition order.
    ///
    /// `progress` records each partition's reply across retries of the same
    /// invocation: a partition whose share already executed is *not*
    /// re-sent when a later partition answers `Blocked` or `StaleRoute`
    /// (migrations move state, they never undo applied operations).
    /// Without this, a mid-scan route refresh would re-apply
    /// non-idempotent shares — e.g. duplicate the jobs of an
    /// `AddJobs` batch on the partitions that had already taken them.
    #[allow(clippy::too_many_arguments)]
    fn all_partitions_op(
        &self,
        table: &ShardRouteTable,
        logic: &dyn ShardLogic,
        op: &[u8],
        kind: OpKind,
        stamp: Option<OpStamp>,
        deadline: Instant,
        progress: &mut Vec<Option<Vec<u8>>>,
    ) -> Result<PartOutcome, RtsError> {
        let parts = table.partitions();
        progress.resize(parts as usize, None);
        for partition in 0..parts {
            if progress[partition as usize].is_some() {
                continue;
            }
            let part_op = logic.op_for(op, partition, parts)?;
            match self.partition_op(table, partition, &part_op, kind, stamp, deadline)? {
                PartOutcome::Done(reply) => progress[partition as usize] = Some(reply),
                PartOutcome::Blocked => return Ok(PartOutcome::Blocked),
                PartOutcome::Stale => return Ok(PartOutcome::Stale),
            }
        }
        let replies = progress.iter().flatten().cloned().collect();
        Ok(PartOutcome::Done(logic.combine(op, replies)?))
    }

    /// Run an `Any`-routed operation: scan partitions (starting at a
    /// rotating offset) until one accepts. Blocks only if no partition
    /// accepted and at least one partition's guard was false.
    fn any_partition_op(
        &self,
        table: &ShardRouteTable,
        logic: &dyn ShardLogic,
        op: &[u8],
        kind: OpKind,
        stamp: Option<OpStamp>,
        deadline: Instant,
    ) -> Result<PartOutcome, RtsError> {
        let parts = table.partitions();
        let start = (self.inner.node.index() as u64
            + self.inner.any_seq.fetch_add(1, Ordering::Relaxed))
            % u64::from(parts);
        let mut last_pass = None;
        let mut any_blocked = false;
        for step in 0..parts {
            let partition = ((start + u64::from(step)) % u64::from(parts)) as u32;
            let part_op = logic.op_for(op, partition, parts)?;
            match self.partition_op(table, partition, &part_op, kind, stamp, deadline)? {
                PartOutcome::Done(reply) => {
                    if logic.accepts(op, &reply)? {
                        return Ok(PartOutcome::Done(reply));
                    }
                    last_pass = Some(reply);
                }
                PartOutcome::Blocked => any_blocked = true,
                PartOutcome::Stale => return Ok(PartOutcome::Stale),
            }
        }
        if any_blocked {
            Ok(PartOutcome::Blocked)
        } else {
            Ok(PartOutcome::Done(
                last_pass.expect("scan visited at least one partition"),
            ))
        }
    }

    /// Set the batching knobs of the asynchronous invocation path (takes
    /// effect from the next flusher round).
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        *self.inner.batch_policy.lock() = policy;
    }

    /// A clone of this handle whose `pipeline` cell is fresh and empty, for
    /// capture by the flusher and retry closures: capturing `self` directly
    /// would create an `Arc` cycle (pipeline → closure → handle →
    /// pipeline) and leak the runtime system.
    fn detached(&self) -> ShardedRts {
        ShardedRts {
            inner: Arc::clone(&self.inner),
            server: Arc::clone(&self.server),
            backup_server: Arc::clone(&self.backup_server),
            pipeline: Arc::new(Mutex::new(None)),
        }
    }

    /// The asynchronous-invocation pipeline, started on first use.
    fn ensure_pipeline(&self) -> Arc<Pipeline> {
        let mut guard = self.pipeline.lock();
        if let Some(pipeline) = guard.as_ref() {
            return Arc::clone(pipeline);
        }
        let rts = self.detached();
        let pipeline = Arc::new(Pipeline::start(
            format!("rts-pipe-{}", self.inner.node),
            self.inner.node.0,
            Arc::clone(self.inner.handle.telemetry()),
            Arc::clone(&self.inner.batch_policy),
            move |ops| rts.run_round(ops),
        ));
        *guard = Some(Arc::clone(&pipeline));
        pipeline
    }

    /// Execute one flusher round: partition-narrowed (`One`-routed)
    /// operations coalesce into one operation-batch request per owner node,
    /// shipped concurrently through one reply-demultiplexing client;
    /// `All`/`Any`-routed operations act as barriers (their effects must
    /// order against earlier batched operations on the same object).
    /// Operations bounced by a migration (`Stale`) are retried in a
    /// follow-up pass, in issue order, until the round deadline. Every
    /// handle resolves in issue order at the end of the round.
    fn run_round(&self, ops: Vec<QueuedOp>) {
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        let mut slots: Vec<RoundSlot> = ops.iter().map(|_| RoundSlot::Todo).collect();
        let mut todo: Vec<usize> = (0..ops.len()).collect();
        loop {
            todo = self.execute_pass(&ops, &todo, &mut slots, deadline);
            if todo.is_empty()
                || Instant::now() >= deadline
                || self.inner.stopped.load(Ordering::SeqCst)
            {
                // Leftover `Todo` slots resolve as Timeout (a route that
                // never settles), mirroring the synchronous path.
                break;
            }
            for &i in &todo {
                self.inner.routes.invalidate(ops[i].object);
            }
            std::thread::sleep(STALE_RETRY_DELAY);
        }
        resolve_round(ops, slots);
    }

    /// One pass over the still-unexecuted operations of a round. Returns
    /// the indices that must be retried (migration in flight), in issue
    /// order.
    fn execute_pass(
        &self,
        ops: &[QueuedOp],
        todo: &[usize],
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) -> Vec<usize> {
        let mut stale: Vec<usize> = Vec::new();
        let mut batches = PendingBatches::new(ShardMsg::OP_BATCH_TAG, ops);
        for &i in todo {
            let op = &ops[i];
            // An earlier operation on this object bounced in this pass;
            // executing a later one now would invert their effects.
            if stale.iter().any(|&s| ops[s].object == op.object) {
                stale.push(i);
                continue;
            }
            let table = match self.route_for(op.object, deadline) {
                Ok(table) => table,
                Err(err) => {
                    slots[i] = RoundSlot::Ready(Err(err));
                    continue;
                }
            };
            if !table.sharded {
                let owner = NodeId(table.owners[0]);
                batches.push(owner, i, op.batched(0, 0, &op.op));
                continue;
            }
            let logic = match self.inner.registry.shard_logic(&table.type_name) {
                Some(logic) => logic,
                None => {
                    slots[i] = RoundSlot::Ready(Err(RtsError::Object(ObjectError::UnknownType(
                        table.type_name.clone(),
                    ))));
                    continue;
                }
            };
            let routed = logic
                .route(&op.op, table.partitions())
                .and_then(|route| match route {
                    ShardRoute::One(partition) => logic
                        .op_for(&op.op, partition, table.partitions())
                        .map(|part_op| (route, Some((partition, part_op)))),
                    _ => Ok((route, None)),
                });
            match routed {
                Ok((ShardRoute::One(_), Some((partition, part_op)))) => {
                    let owner = NodeId(table.owners[partition as usize]);
                    batches.push(owner, i, op.batched(partition, 0, &part_op));
                }
                Ok((route, _)) => {
                    // Barrier: whole-object operations must order against
                    // every batched operation issued before them.
                    self.flush_batches(&mut batches, &mut stale, slots, deadline);
                    if stale.iter().any(|&s| ops[s].object == op.object) {
                        stale.push(i);
                        continue;
                    }
                    slots[i] = match route {
                        ShardRoute::Any => {
                            // Unstamped: the batched asynchronous path
                            // never re-presents an op across a node death
                            // (failures surface on the completion handle).
                            match self.any_partition_op(
                                &table,
                                logic.as_ref(),
                                &op.op,
                                op.kind,
                                None,
                                deadline,
                            ) {
                                Ok(PartOutcome::Done(reply)) => RoundSlot::Ready(Ok(reply)),
                                Ok(PartOutcome::Blocked) => RoundSlot::Blocked,
                                Ok(PartOutcome::Stale) => {
                                    stale.push(i);
                                    continue;
                                }
                                Err(err) => RoundSlot::Ready(Err(err)),
                            }
                        }
                        // `All`-routed operations run to completion inline
                        // (their per-partition progress must never be
                        // discarded and re-sent — the synchronous path owns
                        // that discipline).
                        _ => RoundSlot::Ready(self.invoke(
                            op.object,
                            &table.type_name,
                            op.kind,
                            &op.op,
                        )),
                    };
                }
                Err(err) => slots[i] = RoundSlot::Ready(Err(err.into())),
            }
        }
        self.flush_batches(&mut batches, &mut stale, slots, deadline);
        stale
    }

    /// Ship every pending per-owner batch through the shared
    /// reply-demultiplexing flusher (see
    /// [`crate::pipeline::flush_op_batches`] for the failure contract).
    fn flush_batches(
        &self,
        batches: &mut PendingBatches,
        stale: &mut Vec<usize>,
        slots: &mut [RoundSlot],
        deadline: Instant,
    ) {
        let inner = &self.inner;
        crate::pipeline::flush_op_batches(
            &inner.handle,
            inner.node,
            ports::RTS_SHARD,
            &inner.stats,
            &inner.detector,
            batches,
            stale,
            slots,
            deadline,
            &|ops| apply_op_batch(inner, ops, inner.node),
            &|bytes| match ShardReply::from_bytes(bytes) {
                Ok(ShardReply::Batch(outcomes)) => Ok(outcomes),
                Ok(other) => Err(format!("unexpected batch reply {other:?}")),
                Err(err) => Err(format!("bad reply: {err}")),
            },
        );
    }

    /// Record invocation-level statistics once the routing decision is
    /// known: reads that never left this node are local, everything else is
    /// remote.
    fn record_invocation(&self, table: &ShardRouteTable, route: &ShardRoute, kind: OpKind) {
        let stats = &self.inner.stats;
        let me = self.inner.node.0;
        let all_local = match route {
            ShardRoute::One(p) => table.owners[*p as usize] == me,
            ShardRoute::All | ShardRoute::Any => table.owners.iter().all(|&o| o == me),
        };
        match kind {
            OpKind::Read => {
                if all_local {
                    RtsStats::bump(&stats.local_reads);
                } else {
                    RtsStats::bump(&stats.remote_reads);
                }
            }
            OpKind::Write => {
                RtsStats::bump(&stats.writes);
                if !all_local {
                    RtsStats::bump(&stats.remote_writes);
                }
            }
        }
    }

    /// One routing-and-execution attempt of an invocation under the
    /// current route table.
    fn invoke_once(
        &self,
        object: ObjectId,
        kind: OpKind,
        op: &[u8],
        stamp: Option<OpStamp>,
        deadline: Instant,
        all_progress: &mut Vec<Option<Vec<u8>>>,
    ) -> Result<PartOutcome, RtsError> {
        let table = self.route_for(object, deadline)?;
        if !table.sharded {
            let route = ShardRoute::One(0);
            self.record_invocation(&table, &route, kind);
            return self.partition_op(&table, 0, op, kind, stamp, deadline);
        }
        let logic = self
            .inner
            .registry
            .shard_logic(&table.type_name)
            .ok_or_else(|| RtsError::Object(ObjectError::UnknownType(table.type_name.clone())))?;
        let route = logic.route(op, table.partitions())?;
        self.record_invocation(&table, &route, kind);
        match route {
            ShardRoute::One(partition) => {
                let part_op = logic.op_for(op, partition, table.partitions())?;
                self.partition_op(&table, partition, &part_op, kind, stamp, deadline)
            }
            ShardRoute::All => self.all_partitions_op(
                &table,
                logic.as_ref(),
                op,
                kind,
                stamp,
                deadline,
                all_progress,
            ),
            ShardRoute::Any => {
                self.any_partition_op(&table, logic.as_ref(), op, kind, stamp, deadline)
            }
        }
    }
}

impl RuntimeSystem for ShardedRts {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    fn create_object(&self, type_name: &str, initial_state: &[u8]) -> Result<ObjectId, RtsError> {
        let counter = self.inner.next_object.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(self.inner.node.0, counter);
        let (sharded, owners, states) = match self.inner.registry.shard_logic(type_name) {
            Some(logic) => {
                let parts = self.inner.policy.partitions.max(1);
                let owners: Vec<u16> = (0..parts).map(|p| self.place(id, p)).collect();
                let states = logic.split_state(initial_state, parts)?;
                (true, owners, states)
            }
            // Non-shardable fallback: one partition at the home node,
            // primary-copy semantics without secondary copies.
            None => (false, vec![self.inner.node.0], vec![initial_state.to_vec()]),
        };
        let deadline = Instant::now() + self.inner.policy.op_timeout;
        for (partition, state) in states.iter().enumerate() {
            let partition = partition as u32;
            let owner = NodeId(owners[partition as usize]);
            if owner == self.inner.node {
                let replica = self.inner.registry.instantiate(type_name, state)?;
                let slot = PartitionSlot::new(replica);
                {
                    let replica = slot.replica.lock();
                    ship_backup_state(&self.inner, id, partition, &slot, &**replica);
                }
                self.inner.owned.write().insert((id, partition), slot);
            } else {
                let msg = ShardMsg::Install {
                    shard: part(id, partition),
                    type_name: type_name.to_string(),
                    state: state.clone(),
                    version: 0,
                    dedup: DedupWindow::new(),
                };
                match self.rpc(owner, &msg, deadline)? {
                    ShardReply::Ack => {}
                    ShardReply::Error(msg) => return Err(RtsError::Communication(msg)),
                    other => {
                        return Err(RtsError::Communication(format!(
                            "unexpected Install reply {other:?}"
                        )))
                    }
                }
            }
        }
        let table = ShardRouteTable {
            object: id.0,
            type_name: type_name.to_string(),
            sharded,
            version: 0,
            owners,
        };
        self.inner.homes.write().insert(
            id,
            Arc::new(HomeObject {
                table: Mutex::new(table.clone()),
                migration: Mutex::new(()),
            }),
        );
        self.inner.routes.insert(id, Arc::new(table));
        RtsStats::bump(&self.inner.stats.objects_created);
        Ok(id)
    }

    fn invoke(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> Result<Vec<u8>, RtsError> {
        let mut deadline = Instant::now() + self.inner.policy.op_timeout;
        // Minted once per invocation and reused verbatim by every retry, so
        // a write retried across a promotion applies exactly once: the
        // owner records (stamp, reply) under the replica mutex and the
        // window travels with the partition state into its backup.
        let stamp = (kind == OpKind::Write).then(|| OpStamp {
            origin: self.inner.node.0,
            seq: self.inner.next_stamp.fetch_add(1, Ordering::Relaxed),
        });
        // Per-partition replies of an All-routed operation, preserved
        // across Blocked/Stale retries so no partition's share executes
        // twice (the route is a pure function of the op, so the same
        // invocation routes identically on every retry).
        let mut all_progress: Vec<Option<Vec<u8>>> = Vec::new();
        loop {
            let attempt = self.invoke_once(object, kind, op, stamp, deadline, &mut all_progress);
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(RtsError::NodeDown(node)) if self.inner.recovery.rehome => {
                    // A partition owner (or the home) is dead; recovery is
                    // re-homing its partitions. Re-fetch the route and
                    // retry until the invocation deadline, then report the
                    // dead node rather than a vague timeout. The retry
                    // re-presents the same stamp, so a write the dead owner
                    // already applied (and whose backup was promoted) is
                    // answered from the promoted dedup window, never
                    // applied a second time.
                    self.inner.routes.invalidate(object);
                    if Instant::now() >= deadline {
                        return Err(RtsError::NodeDown(node));
                    }
                    std::thread::sleep(DEAD_OWNER_RETRY_DELAY);
                    continue;
                }
                Err(err) => return Err(err),
            };
            match outcome {
                PartOutcome::Done(reply) => return Ok(reply),
                PartOutcome::Blocked => {
                    // The guard was false: the owner answered, so the
                    // transport is alive — restart the deadline and retry.
                    RtsStats::bump(&self.inner.stats.guard_retries);
                    std::thread::sleep(BLOCKED_RETRY_DELAY);
                    deadline = Instant::now() + self.inner.policy.op_timeout;
                }
                PartOutcome::Stale => {
                    // A migration is (or was) in flight; re-fetch the route.
                    // The deadline is *not* restarted: a route that never
                    // settles surfaces Timeout.
                    self.inner.routes.invalidate(object);
                    if Instant::now() >= deadline {
                        return Err(RtsError::Timeout);
                    }
                    std::thread::sleep(STALE_RETRY_DELAY);
                }
            }
        }
    }

    fn invoke_async(
        &self,
        object: ObjectId,
        _type_name: &str,
        kind: OpKind,
        op: &[u8],
    ) -> PendingInvocation {
        if self.inner.is_lost(object) {
            return PendingInvocation::ready(Err(RtsError::ObjectLost(object)));
        }
        if kind == OpKind::Write {
            RtsStats::bump(&self.inner.stats.writes);
        }
        let pipeline = self.ensure_pipeline();
        let trace = trace::current();
        // A guard-blocked op re-enters this same queue from wait(), so its
        // re-execution keeps issue order instead of jumping ahead through
        // the synchronous path.
        let resubmit = {
            let pipeline = Arc::clone(&pipeline);
            let op = op.to_vec();
            Arc::new(move |completer| {
                pipeline.submit(QueuedOp {
                    object,
                    kind,
                    op: op.clone(),
                    trace,
                    submitted: Instant::now(),
                    completer,
                })
            })
        };
        let (handle, completer) = pending_pair(resubmit);
        pipeline.submit(QueuedOp {
            object,
            kind,
            op: op.to_vec(),
            trace,
            submitted: Instant::now(),
            completer,
        });
        handle
    }

    fn stats(&self) -> RtsStatsSnapshot {
        self.inner.stats.snapshot()
    }

    fn kind(&self) -> RtsKind {
        RtsKind::Sharded
    }
}

/// RPC dispatch: the service side of the shard protocol, on every node.
fn serve_request(inner: &Arc<Inner>, body: &[u8], caller: NodeId) -> Vec<u8> {
    // An operation batch is applied straight from the request bytes;
    // everything else decodes into an owned message first.
    let reply = match OpBatchView::from_request(ShardMsg::OP_BATCH_TAG, body) {
        Some(ops) => ops.map(|ops| ShardReply::Batch(apply_op_batch(inner, &ops, caller))),
        None => ShardMsg::from_bytes(body).map(|msg| dispatch(inner, msg, caller)),
    }
    .unwrap_or_else(|err| ShardReply::Error(format!("bad request: {err}")));
    reply.to_bytes()
}

fn dispatch(inner: &Arc<Inner>, msg: ShardMsg, caller: NodeId) -> ShardReply {
    match msg {
        ShardMsg::Route { object } => {
            let object = ObjectId(object);
            if inner.is_lost(object) {
                return ShardReply::ObjectLost;
            }
            let entry = inner.homes.read().get(&object).cloned();
            match entry {
                Some(entry) => ShardReply::Route(entry.table.lock().clone()),
                None => {
                    // A dead creator's home role falls to the lowest live
                    // node; if that is us, rebuild the table from the
                    // survivors' reports on first contact.
                    let creator = NodeId(object.creator_index());
                    let adopter = inner
                        .detector
                        .as_ref()
                        .filter(|d| !d.is_alive(creator))
                        .and_then(|d| crate::recovery::recovery_home(&d.view()));
                    if inner.recovery.rehome && adopter == Some(inner.node) {
                        match adopt_home(inner, object) {
                            Ok(entry) => ShardReply::Route(entry.table.lock().clone()),
                            Err(reply) => reply,
                        }
                    } else {
                        ShardReply::Error(format!("not home of {object}"))
                    }
                }
            }
        }
        ShardMsg::Op { shard, op, stamp } => serve_op(inner, &shard, &op, stamp, caller),
        ShardMsg::Install {
            shard,
            type_name,
            state,
            version,
            dedup,
        } => match inner.registry.instantiate(&type_name, &state) {
            Ok(replica) => {
                let slot = PartitionSlot::with_parts(replica, version, dedup);
                {
                    let replica = slot.replica.lock();
                    ship_backup_state(
                        inner,
                        part_object(&shard),
                        shard.partition,
                        &slot,
                        &**replica,
                    );
                }
                inner
                    .owned
                    .write()
                    .insert((part_object(&shard), shard.partition), slot);
                RtsStats::bump(&inner.stats.copies_fetched);
                ShardReply::Ack
            }
            Err(err) => ShardReply::Error(err.to_string()),
        },
        ShardMsg::Migrate { shard, dst } => migrate_at_home(inner, &shard, dst),
        ShardMsg::HandOff { shard, dst } => hand_off(inner, &shard, dst),
        // Backup and recovery traffic is served on its own port (see
        // `serve_backup_request`).
        ShardMsg::Backup { .. }
        | ShardMsg::BackupBatch { .. }
        | ShardMsg::InstallBackup { .. }
        | ShardMsg::PromoteBackup { .. }
        | ShardMsg::ReportOwned { .. } => {
            ShardReply::Error("backup traffic on the operation port".into())
        }
    }
}

/// Apply one received operation batch: runs of consecutive ops on one
/// partition execute under a single hold of that partition's replica lock,
/// and each run's completed writes ship to the backup as **one**
/// [`ShardMsg::BackupBatch`] before the run is acknowledged.
fn apply_op_batch(inner: &Arc<Inner>, ops: &OpBatchView<'_>, caller: NodeId) -> Vec<BatchOutcome> {
    // One protocol-handling event for the whole message, one apply per op
    // — the accounting split the cost model relies on.
    if caller != inner.node {
        RtsStats::bump(&inner.stats.updates_applied);
    }
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut ops = ops.iter().peekable();
    while let Some(first) = ops.peek().copied() {
        let key = (ObjectId(first.object), first.partition);
        let run = std::iter::from_fn(|| {
            ops.next_if(|op| op.object == first.object && op.partition == first.partition)
        })
        .inspect(|op| {
            inner.handle.telemetry().record(
                inner.node.0,
                FlightKind::Apply,
                op.trace,
                op.object,
                u64::from(op.partition),
            );
        });
        apply_partition_run(inner, key, run, &mut outcomes);
    }
    outcomes
}

/// Apply a run of consecutive batch ops addressed to one partition,
/// appending one outcome per op (the run is always consumed whole).
fn apply_partition_run<'a>(
    inner: &Arc<Inner>,
    key: (ObjectId, u32),
    run: impl Iterator<Item = OpRef<'a>>,
    outcomes: &mut Vec<BatchOutcome>,
) {
    let slot = inner.owned.read().get(&key).cloned();
    let Some(slot) = slot else {
        return outcomes.extend(run.map(|_| BatchOutcome::Stale));
    };
    let mut replica = slot.replica.lock();
    if slot.withdrawn.load(Ordering::Relaxed) {
        // A hand-off serialized this replica's state while we were waiting
        // for the lock; applying now would lose the writes.
        return outcomes.extend(run.map(|_| BatchOutcome::Stale));
    }
    let mut applied: Vec<Vec<u8>> = Vec::new();
    let mut first_version = 0;
    for op in run {
        let kind = match replica.op_kind(op.op) {
            Ok(kind) => kind,
            Err(err) => {
                outcomes.push(BatchOutcome::Failed(err.to_string()));
                continue;
            }
        };
        match kind {
            OpKind::Read => slot.access.record_read(),
            OpKind::Write => slot.access.record_write(),
        }
        RtsStats::bump(&inner.stats.batch_ops_applied);
        match replica.apply_encoded(op.op) {
            Ok(AppliedOutcome::Done(reply)) => {
                if kind == OpKind::Write {
                    if applied.is_empty() {
                        first_version = slot.version_base + replica.version();
                    }
                    applied.push(op.op.to_vec());
                }
                outcomes.push(BatchOutcome::Done(reply));
            }
            Ok(AppliedOutcome::Blocked) => outcomes.push(BatchOutcome::Blocked),
            Err(err) => outcomes.push(BatchOutcome::Failed(err.to_string())),
        }
    }
    if !applied.is_empty() {
        // Still under the replica mutex, before any ack leaves this node:
        // the batched form of the synchronous `ship_backup` discipline.
        ship_backup_batch(
            inner,
            key.0,
            key.1,
            &slot,
            &**replica,
            applied,
            first_version,
        );
    }
}

/// Ship a run of completed writes to the partition's backup node as one
/// message. A backup that lost sync is reinstalled from full state; an
/// unreachable backup node is skipped (the next write re-targets the
/// then-next live node), exactly like the single-op path.
fn ship_backup_batch(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    slot: &PartitionSlot,
    replica: &dyn AnyReplica,
    ops: Vec<Vec<u8>>,
    first_version: u64,
) {
    if !inner.recovery.enabled {
        return;
    }
    let Some(target) = backup_target(inner, inner.node) else {
        return;
    };
    let shard = part(object, partition);
    let msg = ShardMsg::BackupBatch {
        shard,
        ops,
        first_version,
    };
    match backup_rpc(inner, target, &msg) {
        Ok(ShardReply::Ack) => {}
        Ok(_) => {
            let install = ShardMsg::InstallBackup {
                shard,
                type_name: replica.type_name().to_string(),
                state: replica.state_bytes(),
                version: slot.version_base + replica.version(),
                dedup: slot.dedup.lock().clone(),
            };
            let _ = backup_rpc(inner, target, &install);
        }
        Err(_) => {}
    }
}

/// Execute an owner-shipped operation on a locally-owned partition.
fn serve_op(
    inner: &Arc<Inner>,
    shard: &ShardPartId,
    op: &[u8],
    stamp: Option<OpStamp>,
    caller: NodeId,
) -> ShardReply {
    let key = (part_object(shard), shard.partition);
    let slot = inner.owned.read().get(&key).cloned();
    let Some(slot) = slot else {
        return ShardReply::StaleRoute;
    };
    let mut replica = slot.replica.lock();
    if slot.withdrawn.load(Ordering::Relaxed) {
        // A hand-off serialized this replica's state while we were waiting
        // for the lock; applying now would lose the write.
        return ShardReply::StaleRoute;
    }
    let kind = match replica.op_kind(op) {
        Ok(kind) => kind,
        Err(err) => return ShardReply::Error(err.to_string()),
    };
    match kind {
        OpKind::Read => slot.access.record_read(),
        OpKind::Write => slot.access.record_write(),
    }
    if let Some(stamp) = stamp {
        if let Some(reply) = slot.dedup.lock().lookup(stamp) {
            // A retry of a write this partition already applied (possibly
            // on the backup this replica was promoted from): answer the
            // original reply instead of applying twice.
            return ShardReply::Done(reply.to_vec());
        }
    }
    match replica.apply_encoded(op) {
        Ok(AppliedOutcome::Done(reply)) => {
            if caller != inner.node {
                RtsStats::bump(&inner.stats.updates_applied);
            }
            if kind == OpKind::Write {
                let stamped = stamp.map(|s| (s, reply.clone()));
                if let Some((stamp, reply)) = &stamped {
                    slot.dedup.lock().record(*stamp, reply.clone());
                }
                ship_backup(inner, key.0, key.1, &slot, &**replica, op, stamped);
            }
            ShardReply::Done(reply)
        }
        Ok(AppliedOutcome::Blocked) => ShardReply::Blocked,
        Err(err) => ShardReply::Error(err.to_string()),
    }
}

/// Home-node side of a migration: serialize on the object's migration
/// mutex, ask the current owner to hand the partition over, then publish
/// the new owner assignment. The routing-table mutex itself is held only
/// for the reads and the final publish — never across the hand-off RPC —
/// so concurrent `Route` requests are answered immediately instead of
/// piling up behind an in-flight migration.
fn migrate_at_home(inner: &Arc<Inner>, shard: &ShardPartId, dst: u16) -> ShardReply {
    if usize::from(dst) >= inner.num_nodes {
        return ShardReply::Error(format!("no such node {}", NodeId(dst)));
    }
    let object = part_object(shard);
    let entry = inner.homes.read().get(&object).cloned();
    let Some(entry) = entry else {
        return ShardReply::Error(format!("not home of {object}"));
    };
    let _migration = entry.migration.lock();
    let current = {
        let table = entry.table.lock();
        let Some(&current) = table.owners.get(shard.partition as usize) else {
            return ShardReply::Error(format!("no partition {} of {object}", shard.partition));
        };
        current
    };
    if current == dst {
        return ShardReply::Ack;
    }
    let reply = if NodeId(current) == inner.node {
        hand_off(inner, shard, dst)
    } else {
        match shard_rpc(
            inner,
            NodeId(current),
            &ShardMsg::HandOff { shard: *shard, dst },
        ) {
            Ok(reply) => reply,
            Err(err) => return ShardReply::Error(err.to_string()),
        }
    };
    match reply {
        ShardReply::Ack => {
            let mut table = entry.table.lock();
            table.owners[shard.partition as usize] = dst;
            table.version += 1;
            inner.routes.insert(object, Arc::new(table.clone()));
            ShardReply::Ack
        }
        ShardReply::Error(msg) => ShardReply::Error(msg),
        other => ShardReply::Error(format!("unexpected HandOff reply {other:?}")),
    }
}

/// Owner side of a migration: withdraw the partition (in-flight operations
/// start answering `StaleRoute`), transfer its state to the new owner, and
/// only discard it once the transfer is acknowledged.
fn hand_off(inner: &Arc<Inner>, shard: &ShardPartId, dst: u16) -> ShardReply {
    let key = (part_object(shard), shard.partition);
    let slot = inner.owned.write().remove(&key);
    let Some(slot) = slot else {
        return ShardReply::StaleRoute;
    };
    if NodeId(dst) == inner.node {
        inner.owned.write().insert(key, slot);
        return ShardReply::Ack;
    }
    let (type_name, state, version, dedup) = {
        // Mark the slot withdrawn in the same critical section that
        // snapshots the state: an operation that cloned the slot out of
        // `owned` before the removal above will acquire this mutex later,
        // see the flag and answer StaleRoute instead of applying to (and
        // being acknowledged against) the orphaned replica.
        let replica = slot.replica.lock();
        slot.withdrawn.store(true, Ordering::Relaxed);
        (
            replica.type_name().to_string(),
            replica.state_bytes(),
            slot.version_base + replica.version(),
            slot.dedup.lock().clone(),
        )
    };
    let install = ShardMsg::Install {
        shard: *shard,
        type_name,
        state,
        version,
        dedup,
    };
    match shard_rpc(inner, NodeId(dst), &install) {
        Ok(ShardReply::Ack) => {
            RtsStats::bump(&inner.stats.copies_dropped);
            ShardReply::Ack
        }
        Ok(other) => {
            restore_slot(inner, key, slot);
            ShardReply::Error(format!("install at {} failed: {other:?}", NodeId(dst)))
        }
        Err(err) => {
            restore_slot(inner, key, slot);
            ShardReply::Error(format!("install at {} failed: {err}", NodeId(dst)))
        }
    }
}

/// Put a partition back after a failed transfer, clearing the withdrawn
/// mark (under the replica mutex) so operations are served again.
fn restore_slot(inner: &Arc<Inner>, key: (ObjectId, u32), slot: Arc<PartitionSlot>) {
    {
        let _replica = slot.replica.lock();
        slot.withdrawn.store(false, Ordering::Relaxed);
    }
    inner.owned.write().insert(key, slot);
}

/// Server-side shard RPC (migration traffic), bounded by the policy
/// deadline.
fn shard_rpc(inner: &Arc<Inner>, dst: NodeId, msg: &ShardMsg) -> Result<ShardReply, RtsError> {
    let reply = recovery_rpc(
        &inner.handle,
        &inner.detector,
        &inner.recovery,
        dst,
        ports::RTS_SHARD,
        msg.to_bytes(),
        Instant::now() + inner.policy.op_timeout,
    )?;
    ShardReply::from_bytes(&reply)
        .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
}

// ---------------------------------------------------------------------------
// Crash recovery: partition backups, promotion, and home adoption.
// ---------------------------------------------------------------------------

/// RPC dispatch of backup and recovery traffic (port `RTS_SHARD_BACKUP`).
fn serve_backup_request(inner: &Arc<Inner>, body: &[u8], caller: NodeId) -> Vec<u8> {
    let reply = match ShardMsg::from_bytes(body) {
        Ok(msg) => dispatch_backup(inner, msg, caller),
        Err(err) => ShardReply::Error(format!("bad request: {err}")),
    };
    reply.to_bytes()
}

fn dispatch_backup(inner: &Arc<Inner>, msg: ShardMsg, _caller: NodeId) -> ShardReply {
    match msg {
        ShardMsg::Backup {
            shard,
            op,
            version,
            stamped,
        } => {
            let key = (part_object(&shard), shard.partition);
            let slot = inner.backups.read().get(&key).cloned();
            let Some(slot) = slot else {
                return ShardReply::StaleRoute; // owner reinstalls the backup
            };
            let mut replica = slot.replica.lock();
            if slot.version.load(Ordering::Relaxed) + 1 != version {
                // An update went missing (or this backup predates a
                // promotion): resync from a full state reinstall.
                return ShardReply::StaleRoute;
            }
            match replica.apply_encoded(&op) {
                Ok(AppliedOutcome::Done(_)) => {
                    slot.version.store(version, Ordering::Relaxed);
                    if let Some((stamp, reply)) = stamped {
                        // Keep the window as fresh as the replica: if this
                        // backup is promoted, it answers retries of this
                        // write from here.
                        slot.dedup.lock().record(stamp, reply);
                    }
                    RtsStats::bump(&inner.stats.updates_applied);
                    ShardReply::Ack
                }
                // A write that completed at the owner must complete on the
                // identical backup state; anything else means divergence —
                // ask for a reinstall.
                Ok(AppliedOutcome::Blocked) | Err(_) => ShardReply::StaleRoute,
            }
        }
        ShardMsg::BackupBatch {
            shard,
            ops,
            first_version,
        } => {
            if ops.is_empty() {
                return ShardReply::Ack;
            }
            let key = (part_object(&shard), shard.partition);
            let slot = inner.backups.read().get(&key).cloned();
            let Some(slot) = slot else {
                return ShardReply::StaleRoute; // owner reinstalls the backup
            };
            let mut replica = slot.replica.lock();
            let current = slot.version.load(Ordering::Relaxed);
            let last_version = first_version + ops.len() as u64 - 1;
            if first_version > current + 1 {
                // A run went missing before this one: resync from a full
                // state reinstall.
                return ShardReply::StaleRoute;
            }
            if last_version <= current {
                return ShardReply::Ack; // whole run duplicate
            }
            // Apply exactly the unseen suffix, in owner order.
            RtsStats::bump(&inner.stats.updates_applied);
            let start = (current + 1 - first_version) as usize;
            for op in &ops[start..] {
                match replica.apply_encoded(op) {
                    Ok(AppliedOutcome::Done(_)) => {
                        slot.version.fetch_add(1, Ordering::Relaxed);
                        RtsStats::bump(&inner.stats.batch_ops_applied);
                    }
                    // A write that completed at the owner must complete on
                    // the identical backup state; anything else means
                    // divergence — ask for a reinstall.
                    Ok(AppliedOutcome::Blocked) | Err(_) => return ShardReply::StaleRoute,
                }
            }
            ShardReply::Ack
        }
        ShardMsg::InstallBackup {
            shard,
            type_name,
            state,
            version,
            dedup,
        } => match inner.registry.instantiate(&type_name, &state) {
            Ok(replica) => {
                inner.backups.write().insert(
                    (part_object(&shard), shard.partition),
                    Arc::new(BackupSlot {
                        replica: Mutex::new(replica),
                        version: AtomicU64::new(version),
                        dedup: Mutex::new(dedup),
                    }),
                );
                ShardReply::Ack
            }
            Err(err) => ShardReply::Error(err.to_string()),
        },
        ShardMsg::PromoteBackup { shard } => {
            let key = (part_object(&shard), shard.partition);
            let slot = inner.backups.write().remove(&key);
            let Some(backup) = slot else {
                return ShardReply::StaleRoute;
            };
            let version = backup.version.load(Ordering::Relaxed);
            let (replica, dedup) = match Arc::try_unwrap(backup) {
                Ok(backup) => (backup.replica.into_inner(), backup.dedup.into_inner()),
                Err(shared) => {
                    // Someone still holds the backup slot (a concurrent
                    // Backup RPC); rebuild the replica from its state.
                    let guard = shared.replica.lock();
                    let dedup = shared.dedup.lock().clone();
                    match inner
                        .registry
                        .instantiate(guard.type_name(), &guard.state_bytes())
                    {
                        Ok(replica) => (replica, dedup),
                        Err(err) => return ShardReply::Error(err.to_string()),
                    }
                }
            };
            let slot = PartitionSlot::with_parts(replica, version, dedup);
            {
                // Re-establish a backup for the promoted partition on the
                // next live node before serving any write.
                let replica = slot.replica.lock();
                ship_backup_state(inner, key.0, key.1, &slot, &**replica);
            }
            inner.owned.write().insert(key, slot);
            ShardReply::Ack
        }
        ShardMsg::ReportOwned { object } => report_owned(inner, ObjectId(object)),
        other => ShardReply::Error(format!("unexpected backup message {other:?}")),
    }
}

/// What this node holds of `object`, for a recovering home.
fn report_owned(inner: &Arc<Inner>, object: ObjectId) -> ShardReply {
    let mut type_name = String::new();
    let owned: Vec<(u32, u64)> = {
        let owned = inner.owned.read();
        owned
            .iter()
            .filter(|((obj, _), _)| *obj == object)
            .map(|((_, partition), slot)| {
                let replica = slot.replica.lock();
                type_name = replica.type_name().to_string();
                (*partition, slot.version_base + replica.version())
            })
            .collect()
    };
    let backups: Vec<(u32, u64)> = {
        let backups = inner.backups.read();
        backups
            .iter()
            .filter(|((obj, _), _)| *obj == object)
            .map(|((_, partition), slot)| {
                if type_name.is_empty() {
                    type_name = slot.replica.lock().type_name().to_string();
                }
                (*partition, slot.version.load(Ordering::Relaxed))
            })
            .collect()
    };
    ShardReply::Owned {
        type_name,
        owned,
        backups,
    }
}

/// The node that currently backs up partitions owned by `owner`: the next
/// live node after it in index order. `None` on a single-node pool.
fn backup_target(inner: &Arc<Inner>, owner: NodeId) -> Option<NodeId> {
    if inner.num_nodes <= 1 || !inner.recovery.enabled {
        return None;
    }
    for step in 1..inner.num_nodes {
        let candidate = NodeId(((usize::from(owner.0) + step) % inner.num_nodes) as u16);
        if !is_dead(&inner.detector, candidate) {
            return Some(candidate);
        }
    }
    None
}

fn backup_rpc(inner: &Arc<Inner>, dst: NodeId, msg: &ShardMsg) -> Result<ShardReply, RtsError> {
    let reply = recovery_rpc(
        &inner.handle,
        &inner.detector,
        &inner.recovery,
        dst,
        ports::RTS_SHARD_BACKUP,
        msg.to_bytes(),
        Instant::now() + inner.recovery.attempt_timeout,
    )?;
    ShardReply::from_bytes(&reply)
        .map_err(|err| RtsError::Communication(format!("bad reply: {err}")))
}

/// Ship one completed write to the partition's backup node, synchronously
/// (the caller still holds the owner replica's mutex, so the backup sees
/// writes in execution order and the write is not acknowledged until its
/// backup exists). A backup that lost sync is reinstalled from full state;
/// an unreachable backup node is skipped — the next write re-targets the
/// then-next live node.
#[allow(clippy::too_many_arguments)]
fn ship_backup(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    slot: &PartitionSlot,
    replica: &dyn AnyReplica,
    op: &[u8],
    stamped: Option<(OpStamp, Vec<u8>)>,
) {
    if !inner.recovery.enabled {
        return;
    }
    let Some(target) = backup_target(inner, inner.node) else {
        return;
    };
    let shard = part(object, partition);
    let version = slot.version_base + replica.version();
    let msg = ShardMsg::Backup {
        shard,
        op: op.to_vec(),
        version,
        stamped,
    };
    match backup_rpc(inner, target, &msg) {
        Ok(ShardReply::Ack) => {}
        Ok(_) => {
            let install = ShardMsg::InstallBackup {
                shard,
                type_name: replica.type_name().to_string(),
                state: replica.state_bytes(),
                version,
                dedup: slot.dedup.lock().clone(),
            };
            let _ = backup_rpc(inner, target, &install);
        }
        Err(_) => {}
    }
}

/// Install (or refresh) the full backup state of a locally-owned partition
/// on its backup node.
fn ship_backup_state(
    inner: &Arc<Inner>,
    object: ObjectId,
    partition: u32,
    slot: &PartitionSlot,
    replica: &dyn AnyReplica,
) {
    if !inner.recovery.enabled {
        return;
    }
    let Some(target) = backup_target(inner, inner.node) else {
        return;
    };
    let install = ShardMsg::InstallBackup {
        shard: part(object, partition),
        type_name: replica.type_name().to_string(),
        state: replica.state_bytes(),
        version: slot.version_base + replica.version(),
        dedup: slot.dedup.lock().clone(),
    };
    let _ = backup_rpc(inner, target, &install);
}

/// Home-side partition recovery, run on every view change for the objects
/// this node is home of: partitions owned by dead nodes are re-owned by
/// promoting their backups; a partition with no backup left loses the
/// whole object.
fn recover_home_objects(inner: &Arc<Inner>, view: ViewSnapshot) {
    let objects: Vec<ObjectId> = inner.homes.read().keys().copied().collect();
    for object in objects {
        let entry = inner.homes.read().get(&object).cloned();
        if let Some(entry) = entry {
            recover_object_partitions(inner, object, &entry, &view);
        }
    }
}

fn recover_object_partitions(
    inner: &Arc<Inner>,
    object: ObjectId,
    entry: &Arc<HomeObject>,
    view: &ViewSnapshot,
) {
    let _migration = entry.migration.lock();
    let table = entry.table.lock().clone();
    let dead_partitions: Vec<u32> = table
        .owners
        .iter()
        .enumerate()
        .filter(|(_, owner)| !view.contains(NodeId(**owner)))
        .map(|(partition, _)| partition as u32)
        .collect();
    if dead_partitions.is_empty() {
        return;
    }
    // Phase timeline mirroring the primary-copy coordinator: 0 = dead
    // partitions detected, 1 = survivor reports collected, 2 = promotions
    // published (the Apply/RehomePhase split of the recovery epoch).
    let telemetry = Arc::clone(inner.handle.telemetry());
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 0);
    let started = Instant::now();
    // Ask every survivor what it holds of this object.
    let reports = collect_reports(inner, object, view);
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 1);
    telemetry
        .registry()
        .histogram("rts.recovery.coordinate_ns")
        .record(started.elapsed().as_nanos() as u64);
    let rehome_started = Instant::now();
    let mut new_owners = table.owners.clone();
    for partition in dead_partitions {
        match freshest_holder(&reports, partition) {
            Some((holder, from_backup)) => {
                let promoted = if from_backup {
                    let msg = ShardMsg::PromoteBackup {
                        shard: part(object, partition),
                    };
                    let reply = if holder == inner.node {
                        dispatch_backup(inner, msg, inner.node)
                    } else {
                        match backup_rpc(inner, holder, &msg) {
                            Ok(reply) => reply,
                            Err(_) => ShardReply::StaleRoute,
                        }
                    };
                    matches!(reply, ShardReply::Ack)
                } else {
                    true // a live node already owns it (e.g. prior promotion)
                };
                if promoted {
                    new_owners[partition as usize] = holder.0;
                } else {
                    mark_lost(inner, object);
                    return;
                }
            }
            None => {
                // No authoritative copy and no backup anywhere: the
                // object's state is gone.
                mark_lost(inner, object);
                return;
            }
        }
    }
    let mut table_guard = entry.table.lock();
    table_guard.owners = new_owners;
    table_guard.version += 1;
    inner.routes.insert(object, Arc::new(table_guard.clone()));
    drop(table_guard);
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    telemetry
        .registry()
        .histogram("rts.recovery.rehome_ns")
        .record(rehome_started.elapsed().as_nanos() as u64);
}

/// One survivor's `ReportOwned` answer: `(node, type name, owned
/// partitions with versions, backed-up partitions with versions)`.
type OwnedReport = (NodeId, String, Vec<(u32, u64)>, Vec<(u32, u64)>);

/// Collect `ReportOwned` replies from every live node (self included).
fn collect_reports(inner: &Arc<Inner>, object: ObjectId, view: &ViewSnapshot) -> Vec<OwnedReport> {
    let mut reports = Vec::new();
    for survivor in &view.alive {
        let reply = if *survivor == inner.node {
            report_owned(inner, object)
        } else {
            match backup_rpc(
                inner,
                *survivor,
                &ShardMsg::ReportOwned { object: object.0 },
            ) {
                Ok(reply) => reply,
                Err(_) => continue,
            }
        };
        if let ShardReply::Owned {
            type_name,
            owned,
            backups,
        } = reply
        {
            if !type_name.is_empty() {
                reports.push((*survivor, type_name, owned, backups));
            }
        }
    }
    reports
}

/// The freshest live holder of `partition`: a live owner wins outright (it
/// is authoritative); otherwise the backup with the highest version.
/// Returns `(node, promoted_from_backup)`.
fn freshest_holder(reports: &[OwnedReport], partition: u32) -> Option<(NodeId, bool)> {
    let mut best_owner: Option<(NodeId, u64)> = None;
    let mut best_backup: Option<(NodeId, u64)> = None;
    for (node, _, owned, backups) in reports {
        for (p, version) in owned {
            if *p == partition && best_owner.map(|(_, v)| *version > v).unwrap_or(true) {
                best_owner = Some((*node, *version));
            }
        }
        for (p, version) in backups {
            if *p == partition && best_backup.map(|(_, v)| *version > v).unwrap_or(true) {
                best_backup = Some((*node, *version));
            }
        }
    }
    match (best_owner, best_backup) {
        (Some((node, _)), _) => Some((node, false)),
        (None, Some((node, _))) => Some((node, true)),
        (None, None) => None,
    }
}

fn mark_lost(inner: &Arc<Inner>, object: ObjectId) {
    inner.lost.write().insert(object);
    inner.routes.invalidate(object);
}

/// Rebuild a dead creator's routing table on this node (the adopter) from
/// the survivors' partition reports, promoting backups of partitions whose
/// owner also died.
fn adopt_home(inner: &Arc<Inner>, object: ObjectId) -> Result<Arc<HomeObject>, ShardReply> {
    let _adoption = inner.adoption.lock();
    if let Some(entry) = inner.homes.read().get(&object).cloned() {
        return Ok(entry);
    }
    if inner.is_lost(object) {
        return Err(ShardReply::ObjectLost);
    }
    let Some(detector) = &inner.detector else {
        return Err(ShardReply::Error("no failure detector".into()));
    };
    let view = detector.view();
    // Same phase timeline as the home-side coordinator: 0 = dead home
    // detected (adoption begins), 1 = survivor reports collected, 2 = new
    // routing table published.
    let telemetry = Arc::clone(inner.handle.telemetry());
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 0);
    let started = Instant::now();
    let reports = collect_reports(inner, object, &view);
    if reports.is_empty() {
        return Err(ShardReply::Error(format!("nothing known of {object}")));
    }
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 1);
    telemetry
        .registry()
        .histogram("rts.recovery.coordinate_ns")
        .record(started.elapsed().as_nanos() as u64);
    let rehome_started = Instant::now();
    let type_name = reports[0].1.clone();
    let partitions = reports
        .iter()
        .flat_map(|(_, _, owned, backups)| owned.iter().chain(backups).map(|(p, _)| *p))
        .max()
        .map(|max| max + 1)
        .unwrap_or(1);
    let mut owners = Vec::with_capacity(partitions as usize);
    for partition in 0..partitions {
        match freshest_holder(&reports, partition) {
            Some((holder, from_backup)) => {
                if from_backup {
                    let msg = ShardMsg::PromoteBackup {
                        shard: part(object, partition),
                    };
                    let reply = if holder == inner.node {
                        dispatch_backup(inner, msg, inner.node)
                    } else {
                        match backup_rpc(inner, holder, &msg) {
                            Ok(reply) => reply,
                            Err(_) => ShardReply::StaleRoute,
                        }
                    };
                    if !matches!(reply, ShardReply::Ack) {
                        mark_lost(inner, object);
                        return Err(ShardReply::ObjectLost);
                    }
                }
                owners.push(holder.0);
            }
            None => {
                mark_lost(inner, object);
                return Err(ShardReply::ObjectLost);
            }
        }
    }
    let sharded = inner.registry.shard_logic(&type_name).is_some();
    let table = ShardRouteTable {
        object: object.0,
        type_name,
        sharded,
        // The adopter never saw the creator's migration history; any bump
        // works because caches are refreshed wholesale, not compared.
        version: 1,
        owners,
    };
    let entry = Arc::new(HomeObject {
        table: Mutex::new(table.clone()),
        migration: Mutex::new(()),
    });
    inner.homes.write().insert(object, Arc::clone(&entry));
    inner.routes.insert(object, Arc::new(table));
    telemetry.record_traced(inner.node.0, FlightKind::RehomePhase, view.epoch, 2);
    telemetry
        .registry()
        .histogram("rts.recovery.rehome_ns")
        .record(rehome_started.elapsed().as_nanos() as u64);
    Ok(entry)
}

/// Translate an adoption failure into the client-facing error.
fn adoption_error(inner: &Arc<Inner>, object: ObjectId, reply: ShardReply) -> RtsError {
    match reply {
        ShardReply::ObjectLost => {
            inner.lost.write().insert(object);
            RtsError::ObjectLost(object)
        }
        ShardReply::Error(msg) => RtsError::Communication(msg),
        other => RtsError::Communication(format!("unexpected adoption reply {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::network::Network;
    use orca_object::testing::{Accumulator, AccumulatorOp, Bank, BankOp, BankReply};
    use orca_object::{shard::shard_of_u64, ObjectType};

    fn registry() -> ObjectRegistry {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry.register_sharded::<Bank>();
        registry
    }

    fn start_all(net: &Network, policy: ShardPolicy) -> Vec<ShardedRts> {
        net.node_ids()
            .into_iter()
            .map(|n| ShardedRts::start(net.handle(n), registry(), policy))
            .collect()
    }

    fn shutdown_all(rtses: &[ShardedRts]) {
        for rts in rtses {
            rts.shutdown();
        }
    }

    fn deposit(rts: &ShardedRts, id: ObjectId, key: u64, amount: i64) -> i64 {
        let reply = rts
            .invoke(
                id,
                Bank::TYPE_NAME,
                OpKind::Write,
                &BankOp::Deposit { key, amount }.to_bytes(),
            )
            .unwrap();
        let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
        v
    }

    fn bank_sum(rts: &ShardedRts, id: ObjectId) -> i64 {
        let reply = rts
            .invoke(id, Bank::TYPE_NAME, OpKind::Read, &BankOp::Sum.to_bytes())
            .unwrap();
        let BankReply::Value(v) = BankReply::from_bytes(&reply).unwrap();
        v
    }

    #[test]
    fn sharded_bank_spreads_partitions_and_agrees() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, ShardPolicy::with_partitions(4));
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        // With 4 partitions spread over 4 nodes, every node owns exactly
        // one partition.
        let owners = rtses[1].route_owners(id).unwrap();
        assert_eq!(owners.len(), 4);
        let owned_total: usize = rtses.iter().map(|rts| rts.owned_partitions(id).len()).sum();
        assert_eq!(owned_total, 4);

        // Writes from every node, keys spanning all partitions.
        for (n, rts) in rtses.iter().enumerate() {
            for key in 0..8u64 {
                deposit(rts, id, key, (n + 1) as i64);
            }
        }
        let expected: i64 = (1..=4i64).sum::<i64>() * 8;
        for rts in &rtses {
            assert_eq!(bank_sum(rts, id), expected);
        }
        // Different writes really executed on different nodes: every node
        // that owns a partition served operations for others.
        assert!(rtses.iter().any(|rts| rts.stats().updates_applied > 0));
        assert!(rtses[1].stats().remote_writes > 0);
        shutdown_all(&rtses);
    }

    #[test]
    fn single_partition_behaves_like_primary_copy() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, ShardPolicy::with_partitions(1));
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        assert_eq!(rtses[2].route_owners(id).unwrap().len(), 1);
        assert_eq!(deposit(&rtses[1], id, 9, 5), 5);
        assert_eq!(deposit(&rtses[2], id, 9, 7), 12);
        assert_eq!(bank_sum(&rtses[0], id), 12);
        shutdown_all(&rtses);
    }

    #[test]
    fn non_shardable_type_falls_back_to_home_copy() {
        let net = Network::reliable(3);
        let rtses = start_all(&net, ShardPolicy::with_partitions(4));
        let id = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // The fallback keeps the single replica at the creating node.
        assert_eq!(rtses[0].owned_partitions(id), vec![0]);
        assert_eq!(
            rtses[1].route_owners(id).unwrap(),
            vec![NodeId(0)],
            "fallback must stay at the home node"
        );
        let add = |rts: &ShardedRts, n: i64| {
            let reply = rts
                .invoke(
                    id,
                    Accumulator::TYPE_NAME,
                    OpKind::Write,
                    &AccumulatorOp::Add(n).to_bytes(),
                )
                .unwrap();
            i64::from_bytes(&reply).unwrap()
        };
        assert_eq!(add(&rtses[1], 5), 5);
        assert_eq!(add(&rtses[2], 7), 12);

        // Guarded (blocking) operations work through the retry protocol.
        let waiter = {
            let rts = rtses[2].clone();
            std::thread::spawn(move || {
                let reply = rts
                    .invoke(
                        id,
                        Accumulator::TYPE_NAME,
                        OpKind::Read,
                        &AccumulatorOp::AwaitAtLeast(100).to_bytes(),
                    )
                    .unwrap();
                i64::from_bytes(&reply).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(60));
        add(&rtses[0], 100);
        assert_eq!(waiter.join().unwrap(), 112);
        shutdown_all(&rtses);
    }

    #[test]
    fn concurrent_writers_to_different_partitions_agree() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, ShardPolicy::with_partitions(8));
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let mut handles = Vec::new();
        for (n, rts) in rtses.iter().enumerate() {
            let rts = rts.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    deposit(&rts, id, (n as u64) * 64 + i, 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(bank_sum(&rtses[3], id), 200);
        shutdown_all(&rtses);
    }

    #[test]
    fn migration_moves_partition_and_stale_caches_recover() {
        let net = Network::reliable(2);
        let policy = ShardPolicy {
            partitions: 2,
            placement: ShardPlacement::Home,
            ..ShardPolicy::default()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        assert_eq!(rtses[0].owned_partitions(id), vec![0, 1]);

        // Prime data and node 1's route cache before the move.
        let key: u64 = (0..64).find(|k| shard_of_u64(*k, 2) == 1).unwrap();
        assert_eq!(deposit(&rtses[1], id, key, 10), 10);

        rtses[1].migrate(id, 1, NodeId(1)).unwrap();
        assert_eq!(
            rtses[0].route_owners(id).unwrap(),
            vec![NodeId(0), NodeId(1)]
        );
        assert_eq!(rtses[0].owned_partitions(id), vec![0]);
        assert_eq!(rtses[1].owned_partitions(id), vec![1]);

        // Node 1's cached route is stale; the next operation recovers
        // transparently and the data survived the move.
        assert_eq!(deposit(&rtses[1], id, key, 5), 15);
        assert_eq!(bank_sum(&rtses[0], id), 15);

        // Migrating to the current owner is a no-op.
        rtses[0].migrate(id, 1, NodeId(1)).unwrap();
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        shutdown_all(&rtses);
    }

    #[test]
    fn migration_under_concurrent_writes_loses_nothing() {
        // Writers hammer a partition while it migrates back and forth.
        // Every acknowledged deposit must survive: an op that races the
        // hand-off either lands before the state snapshot (and is part of
        // the transferred state) or is answered StaleRoute and retried at
        // the new owner — never applied to the orphaned replica.
        let net = Network::reliable(2);
        let policy = ShardPolicy {
            partitions: 2,
            placement: ShardPlacement::Home,
            ..ShardPolicy::default()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let hot_key: u64 = (0..64).find(|k| shard_of_u64(*k, 2) == 1).unwrap();
        const DEPOSITS: i64 = 150;
        let writers: Vec<_> = rtses
            .iter()
            .map(|rts| {
                let rts = rts.clone();
                std::thread::spawn(move || {
                    for _ in 0..DEPOSITS {
                        deposit(&rts, id, hot_key, 1);
                    }
                })
            })
            .collect();
        // Bounce the hot partition between the two nodes while the
        // writers run.
        for _ in 0..6 {
            rtses[0].migrate(id, 1, NodeId(1)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            rtses[0].migrate(id, 1, NodeId(0)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(
            bank_sum(&rtses[0], id),
            DEPOSITS * rtses.len() as i64,
            "acknowledged writes were lost across migrations"
        );
        shutdown_all(&rtses);
    }

    #[test]
    fn rebalance_moves_hot_partition_off_overloaded_node() {
        let net = Network::reliable(2);
        let policy = ShardPolicy {
            partitions: 2,
            placement: ShardPlacement::Home,
            rebalance_threshold: 16,
            ..ShardPolicy::default()
        };
        let rtses = start_all(&net, policy);
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        // Below the threshold nothing moves.
        assert_eq!(rtses[0].rebalance(id).unwrap(), None);

        // Hammer one partition from the remote node.
        let hot_key: u64 = (0..64).find(|k| shard_of_u64(*k, 2) == 0).unwrap();
        for _ in 0..32 {
            deposit(&rtses[1], id, hot_key, 1);
        }
        let access = rtses[0].partition_access(id);
        assert!(access.iter().any(|(p, total)| *p == 0 && *total >= 32));

        let moved = rtses[0].rebalance(id).unwrap();
        assert_eq!(moved, Some((0, NodeId(1))));
        assert_eq!(
            rtses[1].route_owners(id).unwrap(),
            vec![NodeId(1), NodeId(0)]
        );
        // Balanced now: a second rebalance has nothing to do.
        assert_eq!(rtses[0].rebalance(id).unwrap(), None);
        assert_eq!(deposit(&rtses[0], id, hot_key, 1), 33);
        shutdown_all(&rtses);
    }

    #[test]
    fn dropped_reply_surfaces_timeout_not_hang() {
        let net = Network::reliable(2);
        let policy = ShardPolicy {
            op_timeout: Duration::from_millis(150),
            ..ShardPolicy::with_partitions(2)
        };
        let rtses = start_all(&net, policy);
        // Fallback object at node 0; crash node 0 and invoke from node 1.
        let acc = rtses[0]
            .create_object(Accumulator::TYPE_NAME, &0i64.to_bytes())
            .unwrap();
        // Sharded object with a partition owned by node 1, home at node 0;
        // prime node 0's cache, then crash node 1 and write to its
        // partition.
        let bank = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let owners = rtses[0].route_owners(bank).unwrap();
        let remote_partition = owners.iter().position(|o| *o == NodeId(1));

        net.crash(NodeId(1));
        if let Some(p) = remote_partition {
            let key = (0..64).find(|k| shard_of_u64(*k, 2) == p as u32).unwrap();
            let started = Instant::now();
            let err = rtses[0]
                .invoke(
                    bank,
                    Bank::TYPE_NAME,
                    OpKind::Write,
                    &BankOp::Deposit { key, amount: 1 }.to_bytes(),
                )
                .unwrap_err();
            assert_eq!(err, RtsError::Timeout);
            assert!(started.elapsed() < Duration::from_secs(5));
        }
        net.recover(NodeId(1));

        net.crash(NodeId(0));
        let started = Instant::now();
        let err = rtses[1]
            .invoke(
                acc,
                Accumulator::TYPE_NAME,
                OpKind::Write,
                &AccumulatorOp::Add(1).to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::Timeout);
        assert!(started.elapsed() < Duration::from_secs(5));
        shutdown_all(&rtses);
    }

    fn start_all_recoverable(
        net: &Network,
        policy: ShardPolicy,
        recovery: RecoveryConfig,
    ) -> Vec<ShardedRts> {
        net.node_ids()
            .into_iter()
            .map(|n| {
                ShardedRts::start_recoverable(net.handle(n), registry(), policy, recovery, None)
            })
            .collect()
    }

    fn wait_for_view_epoch(rts: &ShardedRts, epoch: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while rts.membership_view().expect("recovery enabled").epoch < epoch {
            assert!(Instant::now() < deadline, "failure never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Tentpole: a partition owner dies mid-stream. Every write it
    /// acknowledged was synchronously backed up on a second node; the home
    /// promotes the backup and survivors keep writing — nothing is lost.
    #[test]
    fn owner_crash_promotes_backup_without_losing_acked_writes() {
        let net = Network::reliable(2);
        let rtses = start_all_recoverable(
            &net,
            ShardPolicy::with_partitions(2),
            RecoveryConfig::fast(),
        );
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let owners = rtses[0].route_owners(id).unwrap();
        let Some(remote_partition) = owners.iter().position(|o| *o == NodeId(1)) else {
            panic!("expected a partition owned by node 1 under spread placement");
        };
        let key = (0..64)
            .find(|k| shard_of_u64(*k, 2) == remote_partition as u32)
            .unwrap();
        // Acknowledged writes against node 1's partition.
        assert_eq!(deposit(&rtses[0], id, key, 10), 10);
        assert_eq!(deposit(&rtses[0], id, key, 5), 15);

        net.crash(NodeId(1));
        wait_for_view_epoch(&rtses[0], 1);
        // The partition is promoted from its backup on node 0; acknowledged
        // state survived and writes keep working.
        assert_eq!(deposit(&rtses[0], id, key, 1), 16);
        assert_eq!(bank_sum(&rtses[0], id), 16);
        let owners = rtses[0].route_owners(id).unwrap();
        assert!(owners.iter().all(|o| *o == NodeId(0)), "{owners:?}");
        shutdown_all(&rtses);
    }

    /// Tentpole: the *home* (creating) node dies. The lowest live node
    /// adopts the home role, rebuilds the routing table from survivor
    /// reports, promotes the dead node's partitions from their backups,
    /// and clients re-route transparently.
    #[test]
    fn home_crash_is_adopted_by_lowest_survivor() {
        let net = Network::reliable(3);
        let rtses = start_all_recoverable(
            &net,
            ShardPolicy::with_partitions(3),
            RecoveryConfig::fast(),
        );
        // Created at node 2: node 2 is both home and (under spread
        // placement) owner of at least one partition.
        let id = rtses[2]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let mut expected = 0i64;
        for key in 0..12u64 {
            deposit(&rtses[0], id, key, 3);
            expected += 3;
        }
        assert_eq!(bank_sum(&rtses[1], id), expected);

        net.crash(NodeId(2));
        wait_for_view_epoch(&rtses[0], 1);
        // Clients re-route through the adopted home (node 0) and no
        // acknowledged deposit is missing.
        for key in 0..12u64 {
            deposit(&rtses[1], id, key, 1);
            expected += 1;
        }
        assert_eq!(bank_sum(&rtses[0], id), expected);
        assert_eq!(bank_sum(&rtses[1], id), expected);
        let owners = rtses[1].route_owners(id).unwrap();
        assert!(
            owners.iter().all(|o| *o != NodeId(2)),
            "dead node still owns partitions: {owners:?}"
        );
        shutdown_all(&rtses);
    }

    /// Satellite bugfix: with detection only (no re-homing), an operation
    /// shipped to a *killed* owner fails fast with `NodeDown` instead of
    /// waiting out the 10 s operation deadline.
    #[test]
    fn detect_only_fails_fast_with_node_down() {
        let net = Network::reliable(2);
        let rtses = start_all_recoverable(
            &net,
            ShardPolicy::with_partitions(2),
            RecoveryConfig {
                heartbeat_every: Duration::from_millis(20),
                suspect_after: 4,
                ..RecoveryConfig::detect_only()
            },
        );
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let owners = rtses[0].route_owners(id).unwrap();
        let remote_partition = owners.iter().position(|o| *o == NodeId(1)).unwrap();
        let key = (0..64)
            .find(|k| shard_of_u64(*k, 2) == remote_partition as u32)
            .unwrap();
        net.crash(NodeId(1));
        wait_for_view_epoch(&rtses[0], 1);
        let started = Instant::now();
        let err = rtses[0]
            .invoke(
                id,
                Bank::TYPE_NAME,
                OpKind::Write,
                &BankOp::Deposit { key, amount: 1 }.to_bytes(),
            )
            .unwrap_err();
        assert_eq!(err, RtsError::NodeDown(NodeId(1)));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "NodeDown was not fail-fast"
        );
        shutdown_all(&rtses);
    }

    #[test]
    fn placement_is_deterministic() {
        let net = Network::reliable(4);
        let rtses = start_all(&net, ShardPolicy::with_partitions(4));
        let id = rtses[0]
            .create_object(
                Bank::TYPE_NAME,
                &<Bank as ObjectType>::State::new().to_bytes(),
            )
            .unwrap();
        let owners = rtses[0].route_owners(id).unwrap();
        // Every node computes the identical placement for the same object
        // id without coordination.
        for rts in &rtses {
            let computed: Vec<NodeId> = (0..4).map(|p| NodeId(rts.place(id, p))).collect();
            assert_eq!(computed, owners);
        }
        shutdown_all(&rtses);
    }
}
